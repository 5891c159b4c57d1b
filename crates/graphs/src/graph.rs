//! Undirected simple graphs in CSR form with stable port numbers.

use std::collections::VecDeque;
use std::fmt;

/// Error produced when constructing a malformed [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop(usize),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// Duplicate edges are silently deduplicated; self loops are rejected at
/// [`GraphBuilder::build`] time. Edges are collected as they come and
/// sorted and deduplicated once, at `build`.
///
/// # Examples
///
/// ```
/// use lll_graphs::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 1); // duplicate, ignored
/// let g = b.build()?;
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(1), 2);
/// # Ok::<(), lll_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    /// Every added edge as `(min, max)`, in insertion order, duplicates
    /// included.
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge `{u, v}` (idempotent).
    pub fn add_edge(&mut self, u: usize, v: usize) -> &mut Self {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        self
    }

    /// Finalizes the CSR structure, consuming the builder (its edge list
    /// becomes the graph's).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or a self
    /// loop was added.
    pub fn build(self) -> Result<Graph, GraphError> {
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        // Duplicates and growth leave slack the graph would keep for life.
        edges.shrink_to_fit();
        for &(u, v) in &edges {
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if v >= self.n {
                return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
            }
        }
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, v) in &edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0usize; edges.len() * 2];
        let mut edge_ids = vec![0usize; edges.len() * 2];
        let mut cursor = offsets.clone();
        for (eid, &(u, v)) in edges.iter().enumerate() {
            neighbors[cursor[u]] = v;
            edge_ids[cursor[u]] = eid;
            cursor[u] += 1;
            neighbors[cursor[v]] = u;
            edge_ids[cursor[v]] = eid;
            cursor[v] += 1;
        }
        Ok(Graph {
            offsets,
            neighbors,
            edge_ids,
            edges,
        })
    }
}

/// An immutable undirected simple graph in CSR form.
///
/// Nodes are `0..n`. Every edge has a stable id in `0..m` (edges sorted
/// lexicographically by endpoints) and each node addresses its incident
/// edges through consecutive *ports* `0..degree(v)` — the LOCAL simulator
/// uses ports as its message-addressing scheme, exactly like the standard
/// port-numbering network model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
    edge_ids: Vec<usize>,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// Builds a graph directly from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] for out-of-range endpoints or self loops.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Graph {
        GraphBuilder::new(n)
            .build()
            .expect("empty graph is always valid")
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all nodes (`0` for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Neighbors of `v`, in port order.
    ///
    /// Port order is ascending neighbor order: the builder fills each
    /// node's ports in edge-id order, and the sorted edge list lists
    /// `v`'s lower neighbors `(u, v)` before its higher ones `(v, w)`.
    /// [`Graph::edge_id`] binary-searches this slice.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Ids of the edges incident to `v`, in port order.
    pub fn incident_edges(&self, v: usize) -> &[usize] {
        &self.edge_ids[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Endpoints `(u, v)` with `u < v` of edge `eid`.
    pub fn edge(&self, eid: usize) -> (usize, usize) {
        self.edges[eid]
    }

    /// All edges, sorted lexicographically; the position of an edge is its
    /// id.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Id of the edge `{u, v}` if present (`None` also for `u == v` and
    /// for an endpoint out of range). A binary search over `u`'s
    /// ascending neighbor list, so it costs `O(log deg u)`, not
    /// `O(log m)`.
    pub fn edge_id(&self, u: usize, v: usize) -> Option<usize> {
        if u >= self.num_nodes() {
            return None;
        }
        let port = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.edge_ids[self.offsets[u] + port])
    }

    /// Approximate resident heap size of this graph in bytes: the struct
    /// itself plus the capacity of every CSR buffer. Used by memory
    /// accounting (e.g. the serve daemon's cache-size gauge); it is an
    /// estimate for telemetry, not an allocator-exact figure.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Graph>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<usize>()
            + self.edge_ids.capacity() * std::mem::size_of::<usize>()
            + self.edges.capacity() * std::mem::size_of::<(usize, usize)>()
    }

    /// A structural fingerprint of the graph: a 64-bit FNV-1a hash over
    /// the node count and the canonical (sorted) edge list.
    ///
    /// The fingerprint depends only on the labeled *shape* of the graph —
    /// never on RNG seeds, id shuffles, or any execution state — so two
    /// instances whose dependency graphs were built from the same
    /// structure hash identically. Because the edge list is canonical and
    /// the CSR layout (ports, edge ids) is a pure function of it, equal
    /// fingerprints mean every derived topology artifact (colorings,
    /// schedules) is reusable across the graphs. Equal hashes do not
    /// *prove* equal graphs; collision-sensitive callers (e.g. the
    /// `lll-serve` topology cache) must confirm with a full structure
    /// comparison before reuse.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        };
        mix(self.num_nodes() as u64);
        mix(self.edges.len() as u64);
        for &(u, v) in &self.edges {
            mix(u as u64);
            mix(v as u64);
        }
        h
    }

    /// The neighbor reached from `v` through port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree(v)`.
    pub fn neighbor_at(&self, v: usize, port: usize) -> usize {
        self.neighbors(v)[port]
    }

    /// The port of `v` that leads to `u`, if `{u, v}` is an edge.
    pub fn port_to(&self, v: usize, u: usize) -> Option<usize> {
        self.neighbors(v).iter().position(|&w| w == u)
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// CSR port offsets per node: node `v`'s ports are the contiguous
    /// range `port_offsets()[v]..port_offsets()[v + 1]` of the CSR arrays
    /// (length `n + 1`). The simulator's slab engine balances its shards
    /// by these offsets.
    pub fn port_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The square graph `G²`: same nodes, edges between nodes at distance
    /// 1 or 2. A proper coloring of `G²` is exactly a 2-hop (distance-2)
    /// coloring of `G`, as used in the proof of Corollary 1.4.
    pub fn square(&self) -> Graph {
        let mut b = GraphBuilder::new(self.num_nodes());
        let mut ball = Vec::new();
        for v in 0..self.num_nodes() {
            // The higher-numbered nodes within distance 2 of `v`, in
            // ascending order: the builder receives the edge list sorted.
            ball.clear();
            for &u in self.neighbors(v) {
                ball.push(u);
                ball.extend_from_slice(self.neighbors(u));
            }
            ball.retain(|&w| w > v);
            ball.sort_unstable();
            ball.dedup();
            for &w in &ball {
                b.add_edge(v, w);
            }
        }
        b.build().expect("square of a valid graph is valid")
    }

    /// The line graph `L(G)`: one node per edge of `G`, adjacent iff the
    /// edges share an endpoint. Node `i` of `L(G)` corresponds to edge id
    /// `i` of `G`. Used to reduce edge coloring (Corollary 1.2) to vertex
    /// coloring.
    pub fn line_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.num_edges());
        for v in 0..self.num_nodes() {
            let inc = self.incident_edges(v);
            for i in 0..inc.len() {
                for j in i + 1..inc.len() {
                    b.add_edge(inc[i], inc[j]);
                }
            }
        }
        b.build().expect("line graph of a valid graph is valid")
    }

    /// Breadth-first distances from `src` (`usize::MAX` for unreachable
    /// nodes).
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_nodes()];
        dist[src] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (the empty graph and single node are
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() <= 1 {
            return true;
        }
        self.bfs_distances(0).iter().all(|&d| d != usize::MAX)
    }

    /// Validates a vertex coloring: proper iff no edge is monochromatic.
    pub fn is_proper_coloring(&self, colors: &[usize]) -> bool {
        colors.len() == self.num_nodes() && self.edges.iter().all(|&(u, v)| colors[u] != colors[v])
    }

    /// Validates a distance-2 coloring: proper on `G` and no two neighbors
    /// of any node share a color.
    pub fn is_distance2_coloring(&self, colors: &[usize]) -> bool {
        if colors.len() != self.num_nodes() {
            return false;
        }
        self.square().is_proper_coloring(colors)
    }

    /// Validates an edge coloring indexed by edge id: proper iff no two
    /// edges sharing an endpoint have the same color.
    pub fn is_proper_edge_coloring(&self, colors: &[usize]) -> bool {
        if colors.len() != self.num_edges() {
            return false;
        }
        (0..self.num_nodes()).all(|v| {
            let inc = self.incident_edges(v);
            let mut seen: Vec<usize> = inc.iter().map(|&e| colors[e]).collect();
            seen.sort_unstable();
            seen.windows(2).all(|w| w[0] != w[1])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn csr_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
            let mut nbrs = g.neighbors(v).to_vec();
            nbrs.sort_unstable();
            let expect: Vec<usize> = (0..3).filter(|&u| u != v).collect();
            assert_eq!(nbrs, expect);
        }
    }

    #[test]
    fn fingerprint_tracks_structure_not_construction_order() {
        let g = triangle();
        // Same structure, different insertion order and edge direction.
        let h = Graph::from_edges(3, [(2, 1), (0, 2), (1, 0)]).unwrap();
        assert_eq!(g.fingerprint(), h.fingerprint());
        // Structure changes move the fingerprint.
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_ne!(g.fingerprint(), path.fingerprint());
        let bigger = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_ne!(g.fingerprint(), bigger.fingerprint());
        // Relabelings are distinct shapes by design.
        let relabeled = Graph::from_edges(4, [(0, 1), (1, 3), (0, 3)]).unwrap();
        assert_ne!(bigger.fingerprint(), relabeled.fingerprint());
        assert_ne!(Graph::empty(2).fingerprint(), Graph::empty(3).fingerprint());
    }

    #[test]
    fn edge_ids_and_ports_are_consistent() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        for eid in 0..g.num_edges() {
            let (u, v) = g.edge(eid);
            assert_eq!(g.edge_id(u, v), Some(eid));
            assert_eq!(g.edge_id(v, u), Some(eid));
            let pu = g.port_to(u, v).unwrap();
            assert_eq!(g.neighbor_at(u, pu), v);
            assert_eq!(g.incident_edges(u)[pu], eid);
        }
        assert_eq!(g.edge_id(0, 2), None);
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(
            Graph::from_edges(2, [(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
        assert_eq!(Graph::from_edges(2, [(1, 1)]), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn deduplicates_edges() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn square_of_path() {
        // 0 - 1 - 2 - 3: square adds {0,2}, {1,3}
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let g2 = g.square();
        assert_eq!(g2.num_edges(), 5);
        assert!(g2.has_edge(0, 2));
        assert!(g2.has_edge(1, 3));
        assert!(!g2.has_edge(0, 3));
    }

    #[test]
    fn line_graph_of_star() {
        // K_{1,3}: line graph is a triangle.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let lg = g.line_graph();
        assert_eq!(lg.num_nodes(), 3);
        assert_eq!(lg.num_edges(), 3);
    }

    #[test]
    fn bfs_and_connectivity() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let d = g.bfs_distances(0);
        assert_eq!(d[..3], [0, 1, 2]);
        assert_eq!(d[3], usize::MAX);
        assert!(!g.is_connected());
        assert!(triangle().is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(Graph::empty(0).is_connected());
    }

    #[test]
    fn coloring_validation() {
        let g = triangle();
        assert!(g.is_proper_coloring(&[0, 1, 2]));
        assert!(!g.is_proper_coloring(&[0, 0, 1]));
        assert!(!g.is_proper_coloring(&[0, 1])); // wrong length
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(path.is_proper_coloring(&[0, 1, 0]));
        assert!(!path.is_distance2_coloring(&[0, 1, 0]));
        assert!(path.is_distance2_coloring(&[0, 1, 2]));
    }

    #[test]
    fn edge_coloring_validation() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        // edges sorted: (0,1)=0, (1,2)=1, (2,3)=2
        assert!(g.is_proper_edge_coloring(&[0, 1, 0]));
        assert!(!g.is_proper_edge_coloring(&[0, 0, 1]));
        assert!(!g.is_proper_edge_coloring(&[0, 1]));
    }

    #[test]
    fn port_offsets_cover_csr_ranges() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 0)]).unwrap();
        assert_eq!(g.port_offsets().len(), g.num_nodes() + 1);
        assert_eq!(g.port_offsets()[0], 0);
        assert_eq!(g.port_offsets()[5], 2 * g.num_edges());
        for v in 0..g.num_nodes() {
            assert_eq!(g.port_offsets()[v + 1] - g.port_offsets()[v], g.degree(v));
        }
        // Isolated node 4 owns an empty range.
        assert_eq!(g.port_offsets()[4], g.port_offsets()[5]);
    }
}
