//! A guided tour of the paper, section by section, with live evidence.
//!
//! Walks Brandt–Maus–Uitto (PODC 2019) claim by claim and demonstrates
//! each one on this implementation — the executable companion to
//! `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release --example paper_tour
//! ```

use sharp_lll::apps::sinkless::sinkless_orientation_instance;
use sharp_lll::core::dist::{self, Schedule, Sweep};
use sharp_lll::core::orders::run_fixer3_adaptive_worst;
use sharp_lll::core::triples::{decompose, f_surface, is_representable};
use sharp_lll::core::{audit_p_star, Fixer2, Fixer3, InstanceBuilder};
use sharp_lll::graphs::gen::{hyper_ring, random_regular};
use sharp_lll::mt::{parallel_mt, Selection};
use sharp_lll::numeric::{BigRational, Num};
use sharp_lll::obs::{NullRecorder, NullTiming};

fn heading(s: &str) {
    println!("\n=== {s} ===");
}

fn ring_instance<T: Num>(n: usize, k: usize) -> sharp_lll::core::Instance<T> {
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(&[i, (i + 1) % n], k))
        .collect();
    for i in 0..n {
        let (l, r) = (vars[(i + n - 1) % n], vars[i]);
        b.set_event_predicate(i, move |vals| vals[l] == 0 && vals[r] == 0);
    }
    b.build().expect("valid instance")
}

fn hyper_instance<T: Num>(n: usize, k: usize) -> sharp_lll::core::Instance<T> {
    let h = hyper_ring(n);
    let mut b = InstanceBuilder::<T>::new(n);
    let vars: Vec<usize> = (0..n)
        .map(|i| b.add_uniform_variable(h.edge(i).nodes(), k))
        .collect();
    for j in 0..n {
        let (x1, x2, x3) = (vars[(j + n - 2) % n], vars[(j + n - 1) % n], vars[j]);
        b.set_event_predicate(j, move |vals| {
            vals[x1] == 0 && vals[x2] == 0 && vals[x3] == 0
        });
    }
    b.build().expect("valid instance")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("A tour of 'A Sharp Threshold Phenomenon for the Distributed");
    println!("Complexity of the Lovász Local Lemma' (Brandt-Maus-Uitto, PODC'19)");

    heading("Section 2 / Theorem 1.1 — rank 2, deterministic, any order");
    let inst = ring_instance::<BigRational>(16, 3);
    println!(
        "ring of 16 events, p = 1/9, d = 2, p*2^d = {} < 1",
        inst.criterion_value()
    );
    let report = Fixer2::new(&inst)?.run((0..16).rev())?; // reversed order, why not
    println!(
        "reversed-order sequential fix: success = {}",
        report.is_success()
    );
    assert!(report.is_success());

    heading("Corollary 1.2 — distributed rank 2 via edge coloring");
    let f = ring_instance::<f64>(4096, 3);
    let schedule = Schedule::edge(f.dependency_graph(), 1, 1)?;
    let rep = dist::run(
        &f,
        &schedule,
        &Sweep::default(),
        &mut NullRecorder,
        &mut NullTiming,
    )?;
    println!(
        "n = 4096: {} LOCAL rounds total ({} coloring + {} classes) — flat in n",
        rep.rounds, rep.coloring_rounds, rep.num_classes
    );
    assert!(rep.fix.is_success());

    heading("Section 3.2 / Lemma 3.5 + Figure 1 — representable triples");
    println!(
        "f(1,1) = {} (the all-ones initial potential sits on the surface)",
        f_surface(1.0, 1.0)
    );
    let one = BigRational::one();
    println!(
        "(1,1,1) representable: {}, (1,1,1.001) representable: {}",
        is_representable(&one, &one, &one),
        is_representable(&1.0f64, &1.0, &1.001),
    );

    heading("Figure 2 — the example triple (1/4, 3/2, 1/10), exactly");
    let (a, b, c) = (
        BigRational::from_ratio(1, 4),
        BigRational::from_ratio(3, 2),
        BigRational::from_ratio(1, 10),
    );
    let d = decompose(&a, &b, &c).expect("representable");
    println!(
        "a1={} a2={} b1={} b3={} c2={} c3={}",
        d.a1, d.a2, d.b1, d.b3, d.c2, d.c3
    );
    assert!(d.covers(&a, &b, &c, &BigRational::zero()));

    heading("Theorem 1.3 — rank 3 with the exact P* audit (Definition 3.1)");
    let inst3 = hyper_instance::<BigRational>(10, 3);
    println!(
        "hyper-ring of 10 events, p = 1/27, d = 4, p*2^d = {}",
        inst3.criterion_value()
    );
    let p = inst3.max_event_probability();
    let mut fixer = Fixer3::new(&inst3)?;
    for x in 0..inst3.num_variables() {
        fixer.fix_variable(x)?;
        assert!(audit_p_star(
            &inst3,
            fixer.partial(),
            fixer.phi(),
            &p,
            &BigRational::zero()
        )
        .holds());
    }
    println!("P* held after every one of the 10 fixing steps (exact rationals)");
    assert!(fixer.into_report().is_success());

    heading("The adaptive adversary (Section 2's remark)");
    let report = run_fixer3_adaptive_worst(Fixer3::new(&hyper_instance::<f64>(12, 3))?)?;
    println!(
        "adaptive worst-margin order: success = {}",
        report.is_success()
    );
    assert!(report.is_success());

    heading("Corollary 1.4 — distributed rank 3 via distance-2 coloring");
    let f3 = hyper_instance::<f64>(1024, 3);
    let schedule = Schedule::distance2(f3.dependency_graph(), 1, 1)?;
    let rep = dist::run(
        &f3,
        &schedule,
        &Sweep::default(),
        &mut NullRecorder,
        &mut NullTiming,
    )?;
    println!(
        "n = 1024: {} LOCAL rounds ({} coloring + {} classes)",
        rep.rounds, rep.coloring_rounds, rep.num_classes
    );
    assert!(rep.fix.is_success());

    heading("The sharp threshold — sinkless orientation sits AT p*2^d = 1");
    let g = random_regular(64, 4, 3)?;
    let so = sinkless_orientation_instance::<BigRational>(&g)?;
    println!(
        "criterion value: {} (exactly 1: the lower-bound regime)",
        so.criterion_value()
    );
    println!("deterministic fixer refuses: {}", Fixer2::new(&so).is_err());
    let so_f = sinkless_orientation_instance::<f64>(&g)?;
    let mt = parallel_mt(&so_f, 3, 1 << 20, Selection::IdMinima)?;
    println!(
        "randomized Moser-Tardos solves it in {} MT rounds",
        mt.rounds
    );

    heading("Done");
    println!("Every claim demonstrated. See EXPERIMENTS.md for the full record.");
    Ok(())
}
