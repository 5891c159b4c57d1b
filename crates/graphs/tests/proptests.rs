//! Property tests for graphs, hypergraphs and generators.

use std::collections::BTreeSet;

use lll_graphs::gen::{
    complete, gnp, hyper_ring, hypercube, path, random_3_uniform, random_regular, ring, torus,
};
use lll_graphs::{Graph, GraphBuilder, Hyperedge, Hypergraph};
use proptest::prelude::*;

prop_compose! {
    fn arb_edge_list()(n in 2usize..24, edges in prop::collection::vec((0usize..24, 0usize..24), 0..60)) -> (usize, Vec<(usize, usize)>) {
        let filtered = edges.into_iter().filter(|&(u, v)| u != v && u < n && v < n).collect();
        (n, filtered)
    }
}

/// Sorted edge list, then per-node neighbor and incident-edge-id lists.
type Csr = (Vec<(usize, usize)>, Vec<Vec<usize>>, Vec<Vec<usize>>);

/// The CSR layout `GraphBuilder::build` must produce, computed the
/// straightforward way: a `BTreeSet` of `(min, max)` pairs fixes the
/// edge ids (lexicographic order), the first invalid edge in that order
/// is the error, and each node lists its neighbors in edge-id order.
fn btreeset_csr(
    n: usize,
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> Result<Csr, lll_graphs::GraphError> {
    let set: BTreeSet<(usize, usize)> = edges
        .into_iter()
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    for &(u, v) in &set {
        if u == v {
            return Err(lll_graphs::GraphError::SelfLoop(u));
        }
        if v >= n {
            return Err(lll_graphs::GraphError::NodeOutOfRange { node: v, n });
        }
    }
    let mut neighbors = vec![Vec::new(); n];
    let mut incident = vec![Vec::new(); n];
    for (eid, &(u, v)) in set.iter().enumerate() {
        neighbors[u].push(v);
        incident[u].push(eid);
        neighbors[v].push(u);
        incident[v].push(eid);
    }
    Ok((set.into_iter().collect(), neighbors, incident))
}

/// The CSR invariant [`Graph::edge_id`] relies on: every neighbor list
/// is strictly ascending, `edge_id(u, v)` finds each edge's position in
/// `edges()` from either endpoint, and every other pair, `u == v` and
/// every out-of-range endpoint give `None`.
fn check_csr_invariant(g: &Graph) -> Result<(), TestCaseError> {
    let n = g.num_nodes();
    for v in 0..n {
        prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]), "node {}", v);
    }
    for (eid, &(u, v)) in g.edges().iter().enumerate() {
        prop_assert_eq!(g.edge_id(u, v), Some(eid));
        prop_assert_eq!(g.edge_id(v, u), Some(eid));
    }
    for u in 0..n {
        for v in 0..n {
            let listed = g.edges().binary_search(&(u.min(v), u.max(v))).ok();
            prop_assert_eq!(
                g.edge_id(u, v),
                listed.filter(|_| u != v),
                "pair ({}, {})",
                u,
                v
            );
        }
        prop_assert_eq!(g.edge_id(u, n), None);
        prop_assert_eq!(g.edge_id(n, u), None);
        prop_assert_eq!(g.edge_id(u, usize::MAX), None);
        prop_assert_eq!(g.edge_id(usize::MAX, u), None);
    }
    Ok(())
}

proptest! {
    #[test]
    fn csr_structure_is_consistent((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges.clone()).expect("filtered edges are valid");
        // Handshake lemma.
        let degree_sum: usize = (0..n).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        // Every listed edge is present with a consistent id and ports.
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v));
            let eid = g.edge_id(u, v).expect("edge present");
            let (a, b) = g.edge(eid);
            prop_assert_eq!((a.min(b), a.max(b)), (u.min(v), u.max(v)));
            let p = g.port_to(u, v).expect("port exists");
            prop_assert_eq!(g.neighbor_at(u, p), v);
        }
        // Adjacency is symmetric.
        for v in 0..n {
            for &u in g.neighbors(v) {
                prop_assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn csr_neighbors_ascend_and_edge_ids_match_the_edge_list(
        (n, edges) in arb_edge_list(),
        seed in 0u64..50,
    ) {
        let k = n.max(5);
        let mut graphs = vec![
            Graph::from_edges(n, edges).expect("filtered edges are valid"),
            ring(k),
            path(n),
            complete(n.min(9)),
            torus(3 + n % 3, 3 + seed as usize % 3),
            hypercube(1 + (seed % 4) as u32),
            gnp(n, 0.3, seed),
            hyper_ring(k).dependency_graph(),
            random_3_uniform(3 * (2 + n % 4), 3, seed)
                .expect("feasible parameters")
                .dependency_graph(),
        ];
        if let Ok(g) = random_regular(2 * k, 3, seed) {
            graphs.push(g);
        }
        for g in graphs {
            check_csr_invariant(&g)?;
            check_csr_invariant(&g.square())?;
            check_csr_invariant(&g.line_graph())?;
        }
    }

    #[test]
    fn square_contains_graph_and_two_paths((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges).expect("valid");
        let g2 = g.square();
        for &(u, v) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
        // Distance-2 pairs are exactly the extra edges.
        for u in 0..n {
            for v in (u + 1)..n {
                let dist = g.bfs_distances(u)[v];
                prop_assert_eq!(g2.has_edge(u, v), dist <= 2 && dist > 0, "pair ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn line_graph_counts((n, edges) in arb_edge_list()) {
        let g = Graph::from_edges(n, edges).expect("valid");
        let lg = g.line_graph();
        prop_assert_eq!(lg.num_nodes(), g.num_edges());
        // Each node of G contributes C(deg, 2) line-graph edges; sharing
        // two endpoints is impossible in a simple graph, so the sum is
        // exact.
        let expect: usize = (0..n).map(|v| g.degree(v) * (g.degree(v).saturating_sub(1)) / 2).sum();
        prop_assert_eq!(lg.num_edges(), expect);
    }

    #[test]
    fn builder_is_idempotent((n, edges) in arb_edge_list()) {
        let mut b1 = GraphBuilder::new(n);
        let mut b2 = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b1.add_edge(u, v);
            b2.add_edge(u, v);
            b2.add_edge(v, u); // duplicates in both orientations
        }
        prop_assert_eq!(b1.build().unwrap(), b2.build().unwrap());
    }

    #[test]
    fn builder_matches_a_btreeset_reference(
        n in 1usize..20,
        edges in prop::collection::vec((0usize..22, 0usize..22, any::<bool>()), 0..80),
    ) {
        // Raw lists: duplicates, both orientations, and the occasional
        // self loop or out-of-range endpoint.
        let mut b = GraphBuilder::new(n);
        for &(u, v, flip) in &edges {
            if flip { b.add_edge(v, u); } else { b.add_edge(u, v); }
        }
        let reference = btreeset_csr(n, edges.iter().map(|&(u, v, _)| (u, v)));
        match (b.build(), reference) {
            (Ok(g), Ok((sorted, neighbors, incident))) => {
                prop_assert_eq!(g.num_nodes(), n);
                prop_assert_eq!(g.edges(), &sorted[..]);
                // No slack capacity: the topology cache accounts graphs
                // by `approx_bytes`.
                let m = sorted.len();
                prop_assert_eq!(
                    g.approx_bytes(),
                    std::mem::size_of::<Graph>()
                        + (n + 1 + 4 * m) * std::mem::size_of::<usize>()
                        + m * std::mem::size_of::<(usize, usize)>()
                );
                for v in 0..n {
                    prop_assert_eq!(g.neighbors(v), &neighbors[v][..]);
                    prop_assert_eq!(g.incident_edges(v), &incident[v][..]);
                }
            }
            (got, want) => prop_assert_eq!(got.err(), want.err()),
        }
    }

    #[test]
    fn random_regular_is_simple_and_regular(n in 6usize..40, seed in 0u64..50) {
        let d = 3 + (seed as usize % 2); // 3 or 4
        prop_assume!((n * d).is_multiple_of(2));
        let g = random_regular(n, d, seed).expect("feasible parameters");
        prop_assert!((0..n).all(|v| g.degree(v) == d));
        prop_assert_eq!(g.num_edges(), n * d / 2);
    }

    #[test]
    fn gnp_edge_count_within_bounds(n in 2usize..30, seed in 0u64..20) {
        let g = gnp(n, 0.5, seed);
        prop_assert!(g.num_edges() <= n * (n - 1) / 2);
        prop_assert!(g.max_degree() < n);
    }

    #[test]
    fn random_3_uniform_degrees_exact(k in 2usize..12, seed in 0u64..20) {
        let n = 3 * k;
        let h = random_3_uniform(n, 3, seed).expect("feasible parameters");
        prop_assert!((0..n).all(|v| h.degree(v) == 3));
        prop_assert_eq!(h.num_edges(), n);
        // Dependency graph degree bounded by 2 * node degree.
        prop_assert!(h.max_dependency_degree() <= 6);
    }

    #[test]
    fn hypergraph_dependency_graph_is_exact(nodes in 3usize..12, seed in 0u64..30) {
        // Random small hypergraph from triples of a seeded walk.
        let mut edges = Vec::new();
        let mut state = seed;
        for _ in 0..nodes {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 10) as usize % nodes;
            let b = (state >> 20) as usize % nodes;
            let c = (state >> 30) as usize % nodes;
            let e = Hyperedge::new([a, b, c]);
            if e.rank() >= 2 {
                edges.push(e);
            }
        }
        prop_assume!(!edges.is_empty());
        let h = Hypergraph::new(nodes, edges.clone(), 3).expect("valid");
        let dep = h.dependency_graph();
        for u in 0..nodes {
            for v in (u + 1)..nodes {
                let share = edges.iter().any(|e| e.contains(u) && e.contains(v));
                prop_assert_eq!(dep.has_edge(u, v), share, "pair ({}, {})", u, v);
            }
        }
    }
}

#[test]
fn deterministic_topologies_have_expected_girth_like_structure() {
    // Spot integration checks that don't fit proptest well.
    let t = torus(5, 4);
    assert_eq!(t.num_edges(), 40);
    let r = ring(9);
    assert_eq!(r.bfs_distances(0)[4], 4);
    assert_eq!(r.bfs_distances(0)[5], 4);
    let h = hyper_ring(9);
    assert_eq!(h.max_dependency_degree(), 4);
}
