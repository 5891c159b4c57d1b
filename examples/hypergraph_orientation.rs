//! The paper's rank-3 application: hypergraph sinkless orientation.
//!
//! Computes three orientations of a 3-uniform hypergraph such that every
//! node is a non-sink in at least two of them — deterministically, with
//! the full distributed pipeline (distance-2 coloring on the LOCAL
//! simulator + the scheduled rank-3 fixer of Corollary 1.4).
//!
//! ```text
//! cargo run --release --example hypergraph_orientation -- [n] [seed]
//! ```

use std::env;

use sharp_lll::apps::hyper_orientation::{
    heads_from_assignment, hyper_orientation_instance, is_valid_orientation, non_sink_rounds,
};
use sharp_lll::core::dist::{self, Schedule, Sweep};
use sharp_lll::graphs::gen::random_3_uniform;
use sharp_lll::obs::{NullRecorder, NullTiming};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = env::args().skip(1);
    let n: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(48);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(7);

    println!("random 3-uniform hypergraph: n = {n}, node degree 3, seed = {seed}");
    let h = random_3_uniform(n, 3, seed)?;
    println!("  hyperedges (variables): {}", h.num_edges());
    println!("  dependency degree d:    {}", h.max_dependency_degree());

    let inst = hyper_orientation_instance::<f64>(&h)?;
    println!(
        "  bad-event probability p: {:.6}",
        inst.max_event_probability()
    );
    println!(
        "  criterion p*2^d:         {:.6}  (strictly below 1)",
        inst.criterion_value()
    );

    let schedule = Schedule::distance2(inst.dependency_graph(), seed, 1)?;
    let rep = dist::run(
        &inst,
        &schedule,
        &Sweep::default(),
        &mut NullRecorder,
        &mut NullTiming,
    )?;
    println!("distributed run:");
    println!("  LOCAL rounds total:    {}", rep.rounds);
    println!("  ... coloring rounds:   {}", rep.coloring_rounds);
    println!("  ... color classes:     {}", rep.num_classes);

    let heads = heads_from_assignment(&h, rep.fix.assignment());
    assert!(rep.fix.is_success());
    assert!(is_valid_orientation(&h, &heads));
    let worst = (0..h.num_nodes())
        .map(|v| non_sink_rounds(&h, &heads, v))
        .min()
        .unwrap_or(3);
    println!("verified: every node is a non-sink in >= {worst} of the 3 orientations.");

    // Show a couple of hyperedges with their three heads.
    for (i, hd) in heads.iter().enumerate().take(3) {
        println!(
            "  hyperedge {i} {:?} -> heads per orientation {hd:?}",
            h.edge(i).nodes()
        );
    }
    Ok(())
}
