//! The sharp threshold, live.
//!
//! Sweeps the criterion tightness `p·2^d` across 1.0 on a fixed topology
//! and prints, per tightness: whether the paper's guarantee applies,
//! whether the greedy process still happens to win, and what the
//! randomized Moser–Tardos baseline pays. Also shows the boundary
//! problem itself — sinkless orientation, where `p·2^d = 1` exactly.
//!
//! ```text
//! cargo run --release --example threshold_demo
//! ```

use sharp_lll::apps::sinkless::sinkless_orientation_instance;
use sharp_lll::core::{Fixer2, Fixer3};
use sharp_lll::graphs::gen::{hyper_ring, random_regular, torus};
use sharp_lll::mt::parallel_mt;

// Re-implements the bench workload inline so the example is
// self-contained (one fair k-valued variable per edge, random bad sets
// of controlled size).
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sharp_lll::core::{Instance, InstanceBuilder};
use std::collections::BTreeSet;

fn controlled_instance(t: f64, seed: u64) -> Instance<f64> {
    let g = torus(6, 6); // 4-regular: d = 4
    let k = 4usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::<f64>::new(g.num_nodes());
    let vars: Vec<usize> = (0..g.num_edges())
        .map(|eid| {
            let (u, v) = g.edge(eid);
            b.add_uniform_variable(&[u, v], k)
        })
        .collect();
    for v in 0..g.num_nodes() {
        let total = k.pow(g.degree(v) as u32);
        let bad_count = ((t * total as f64 / 16.0).floor() as usize).min(total);
        let mut bad = BTreeSet::new();
        while bad.len() < bad_count {
            bad.insert(rng.random_range(0..total));
        }
        let mut support: Vec<usize> = g.incident_edges(v).iter().map(|&e| vars[e]).collect();
        support.sort_unstable();
        b.set_event_predicate(v, move |vals| {
            let idx = support.iter().rev().fold(0, |acc, &x| acc * k + vals[x]);
            bad.contains(&idx)
        });
    }
    b.build().expect("valid instance")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("torus 6x6, d = 4: sweeping the criterion tightness p*2^d across 1.0\n");
    println!(
        "{:>7}  {:>10}  {:>14}  {:>14}",
        "p*2^d", "guarantee", "greedy fixer", "MT rounds"
    );
    for t in [0.5, 0.9, 0.99, 1.0, 1.5, 4.0, 10.0, 16.0] {
        let inst = controlled_instance(t, 77);
        let guaranteed = inst.satisfies_exponential_criterion();
        let greedy = Fixer2::new_unchecked(&inst)?.run_default()?;
        let mt = parallel_mt(&inst, 77, 200_000)
            .map(|r| r.rounds.to_string())
            .unwrap_or_else(|_| "diverged".to_owned());
        println!(
            "{:>7.2}  {:>10}  {:>14}  {:>14}",
            t,
            if guaranteed { "yes" } else { "NO" },
            if greedy.is_success() {
                "success".to_owned()
            } else {
                format!("{} events bad", greedy.violated_events().len())
            },
            mt,
        );
    }

    println!("\nThe guarantee dies exactly at p*2^d = 1. Random instances stay easy a");
    println!("while longer — the *worst case* at the threshold is sinkless orientation:\n");

    let g = random_regular(64, 4, 3)?;
    let so = sinkless_orientation_instance::<f64>(&g)?;
    println!(
        "sinkless orientation on a 4-regular graph: p*2^d = {}",
        so.criterion_value()
    );
    match Fixer2::new(&so) {
        Err(e) => println!("Fixer2::new refuses: {e}"),
        Ok(_) => unreachable!("sinkless orientation is at the threshold"),
    }
    let mt = parallel_mt(&so, 3, 200_000)?;
    println!(
        "parallel Moser-Tardos still solves it, in {} rounds (randomized).",
        mt.rounds
    );

    println!("\nStrictly below the threshold the deterministic rank-3 fixer handles the");
    println!("paper's relaxation (3 orientations, sink in at most 1 of them):");
    let h = hyper_ring(64);
    let ho = sharp_lll::apps::hyper_orientation::hyper_orientation_instance::<f64>(&h)?;
    println!(
        "hypergraph orientation: p*2^d = {:.5} < 1",
        ho.criterion_value()
    );
    let rep = Fixer3::new(&ho)?.run_default()?;
    println!("deterministic fixer succeeds: {}", rep.is_success());
    Ok(())
}
