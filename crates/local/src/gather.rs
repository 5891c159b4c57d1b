//! Neighborhood gathering — the universal LOCAL primitive.
//!
//! Everything computable in `r` LOCAL rounds is computable by collecting
//! the radius-`r` ball (ids + edges) and post-processing it locally;
//! this module provides that collection as a reusable [`NodeProgram`],
//! [`GatherProgram`]. The toolkit uses it in tests
//! as an oracle (e.g. to verify that the fixers' schedules only ever
//! depend on bounded neighborhoods) and it rounds out the simulator as a
//! general-purpose LOCAL workbench.

use std::collections::BTreeSet;

use crate::{Inbox, NodeContext, NodeProgram, RoundResult};

/// The radius-`r` view of a node: every id within distance `r` and every
/// edge with at least one endpoint within distance `r - 1` (exactly the
/// information an `r`-round LOCAL algorithm can acquire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ball {
    /// The gathering node's own id.
    pub center: u64,
    /// Ids seen, sorted ascending (includes `center`).
    pub ids: Vec<u64>,
    /// Edges seen, as ordered id pairs `(min, max)`, sorted.
    pub edges: Vec<(u64, u64)>,
}

impl Ball {
    /// Distance from the center to `id` within the collected ball
    /// (`None` if `id` is not in the ball).
    pub fn distance_to(&self, id: u64) -> Option<usize> {
        // BFS over the collected edges.
        if self.ids.binary_search(&id).is_err() {
            return None;
        }
        let idx = |x: u64| self.ids.binary_search(&x).expect("id in ball");
        let n = self.ids.len();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            let (ia, ib) = (idx(a), idx(b));
            adj[ia].push(ib);
            adj[ib].push(ia);
        }
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::from([idx(self.center)]);
        dist[idx(self.center)] = 0;
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        let d = dist[idx(id)];
        (d != usize::MAX).then_some(d)
    }
}

/// Message: the sender's id plus every edge it has learned so far.
type GatherMsg = (u64, Vec<(u64, u64)>);

/// The ball-collection [`NodeProgram`]: floods known edges for `radius`
/// rounds, then outputs the assembled [`Ball`].
#[derive(Debug, Clone)]
pub struct GatherProgram {
    radius: usize,
    edges: BTreeSet<(u64, u64)>,
    ids: BTreeSet<u64>,
}

impl GatherProgram {
    /// Creates a gatherer with the given radius (`0` collects only the
    /// node itself).
    pub fn new(radius: usize) -> GatherProgram {
        GatherProgram {
            radius,
            edges: BTreeSet::new(),
            ids: BTreeSet::new(),
        }
    }

    fn ball(&self, center: u64) -> Ball {
        Ball {
            center,
            ids: self.ids.iter().copied().collect(),
            edges: self.edges.iter().copied().collect(),
        }
    }
}

impl NodeProgram for GatherProgram {
    type Message = GatherMsg;
    type Output = Ball;

    fn init(&mut self, ctx: &mut NodeContext) -> Option<GatherMsg> {
        self.ids.insert(ctx.id);
        Some((ctx.id, Vec::new()))
    }

    fn round(
        &mut self,
        ctx: &mut NodeContext,
        inbox: Inbox<'_, GatherMsg>,
    ) -> RoundResult<GatherMsg, Ball> {
        if self.radius == 0 {
            // Radius 0: the node may not incorporate anything it heard.
            return RoundResult::Halt(self.ball(ctx.id));
        }
        for (sender, edges) in inbox.iter().flatten() {
            let me_edge = (ctx.id.min(*sender), ctx.id.max(*sender));
            self.edges.insert(me_edge);
            self.ids.insert(*sender);
            for &(a, b) in edges {
                self.edges.insert((a, b));
                self.ids.insert(a);
                self.ids.insert(b);
            }
        }
        if self.radius == 1 {
            return RoundResult::Halt(self.ball(ctx.id));
        }
        self.radius -= 1;
        RoundResult::Continue(Some((ctx.id, self.edges.iter().copied().collect())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use lll_graphs::gen::{ring, torus};

    /// Every node's radius-`radius` ball, and the rounds the gather took.
    fn gather(sim: &Simulator<'_>, radius: usize) -> (Vec<Ball>, usize) {
        let run = sim
            .run_auto(|_| GatherProgram::new(radius), radius + 2)
            .unwrap();
        (run.outputs, run.rounds)
    }

    #[test]
    fn ball_sizes_on_ring() {
        let g = ring(20);
        let sim = Simulator::new(&g);
        for radius in [0usize, 1, 2, 3] {
            let (balls, rounds) = gather(&sim, radius);
            assert_eq!(rounds, radius.max(1));
            for (v, ball) in balls.iter().enumerate() {
                assert_eq!(ball.center, v as u64);
                assert_eq!(ball.ids.len(), if radius == 0 { 1 } else { 2 * radius + 1 });
            }
        }
    }

    #[test]
    fn ball_sizes_on_torus() {
        let g = torus(7, 7);
        let sim = Simulator::new(&g);
        let (balls, _) = gather(&sim, 2);
        // |B_2| in the 4-regular torus: 1 + 4 + 8 = 13.
        assert!(balls.iter().all(|b| b.ids.len() == 13));
    }

    #[test]
    fn collected_edges_support_distances() {
        let g = ring(12);
        let sim = Simulator::new(&g);
        let (balls, _) = gather(&sim, 3);
        let b0 = &balls[0];
        assert_eq!(b0.distance_to(0), Some(0));
        assert_eq!(b0.distance_to(3), Some(3));
        assert_eq!(b0.distance_to(9), Some(3)); // the other way round
        assert_eq!(b0.distance_to(6), None); // outside the ball
    }

    #[test]
    fn gathering_solves_problems_locally() {
        // A silly but real LOCAL algorithm: each node outputs whether it
        // has the locally maximal id within distance 2.
        let g = torus(5, 5);
        let sim = Simulator::with_shuffled_ids(&g, 3);
        let (balls, rounds) = gather(&sim, 2);
        let flags: Vec<bool> = balls
            .iter()
            .map(|b| b.ids.iter().all(|&x| x <= b.center))
            .collect();
        assert_eq!(rounds, 2);
        // The flagged set is a distance-3 independent set and non-empty.
        let winners: Vec<usize> = (0..25).filter(|&v| flags[v]).collect();
        assert!(!winners.is_empty());
        for &u in &winners {
            for &v in &winners {
                if u != v {
                    assert!(g.bfs_distances(u)[v] > 2, "{u} and {v} too close");
                }
            }
        }
    }
}
