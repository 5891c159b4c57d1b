//! Relaxed weak splitting (the paper's second application).
//!
//! Given a bipartite graph `B = (V ∪ U, E)` with `U`-degrees ≤ 3, color
//! `U` with 16 colors such that every `V` node sees at least 2 distinct
//! colors — deterministically via the rank-3 fixer.
//!
//! ```text
//! cargo run --release --example weak_splitting -- [nv] [seed]
//! ```

use std::env;

use sharp_lll::apps::weak_splitting::{is_weak_splitting, weak_splitting_instance, DEFAULT_COLORS};
use sharp_lll::core::dist::{self, Schedule, Sweep};
use sharp_lll::core::Fixer3;
use sharp_lll::graphs::gen::random_bipartite_biregular;
use sharp_lll::obs::{NullRecorder, NullTiming};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = env::args().skip(1);
    let nv: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(60);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(5);

    // Biregular: V nodes of degree 3, U nodes of degree 3 (= rank r).
    let bip = random_bipartite_biregular(nv, 3, nv, 3, seed)?;
    println!("bipartite instance: |V| = |U| = {nv}, degrees 3/3, {DEFAULT_COLORS} colors");

    let inst = weak_splitting_instance::<f64>(&bip, nv, DEFAULT_COLORS)?;
    println!(
        "  bad-event probability p = 16^(1-3) = {:.6}",
        inst.max_event_probability()
    );
    println!(
        "  dependency degree d:      {}",
        inst.max_dependency_degree()
    );
    println!("  criterion p*2^d:          {:.4}", inst.criterion_value());

    // Sequential (Theorem 1.3)...
    let report = Fixer3::new(&inst)?.run_default()?;
    assert!(report.is_success());
    assert!(is_weak_splitting(&bip, nv, report.assignment(), 2));
    println!("sequential fixer: every V node sees >= 2 colors — verified.");

    // ... and distributed (Corollary 1.4).
    let schedule = Schedule::distance2(inst.dependency_graph(), seed, 1)?;
    let rep = dist::run(
        &inst,
        &schedule,
        &Sweep::default(),
        &mut NullRecorder,
        &mut NullTiming,
    )?;
    assert!(rep.fix.is_success());
    assert!(is_weak_splitting(&bip, nv, rep.fix.assignment(), 2));
    println!(
        "distributed fixer: {} LOCAL rounds ({} coloring + {} classes x 2) — verified.",
        rep.rounds, rep.coloring_rounds, rep.num_classes
    );

    // Palette usage statistics.
    let mut used = vec![0usize; DEFAULT_COLORS];
    for &c in rep.fix.assignment() {
        used[c] += 1;
    }
    println!("color histogram over U: {used:?}");
    Ok(())
}
