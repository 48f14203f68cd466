//! The pre-refactor hash-addressed engine, kept as a reference twin.
//!
//! This is the original `SimNet`: nodes live behind a `HashMap` coordinate
//! index, every node allocates its own inbox `Vec` per round, the link
//! relation is a boxed closure, and every node's handler runs every round
//! whether or not it has messages. It is semantically equivalent to the
//! flat engine [`sim_net::SimNet`] — the parity tests in `parity.rs` pin
//! identical round and message counts on fixed seeds — and exists so a
//! behavioral regression in the rewrite has a ground truth to be caught
//! against.

use std::collections::HashMap;
use std::hash::Hash;

use sim_net::RunStats;

/// Per-step context of the reference engine: round number plus an outbox.
pub struct HashCtx<'a, C, M> {
    /// The current round (0-based).
    pub round: usize,
    coord: C,
    neighbor_check: &'a dyn Fn(C, C) -> bool,
    outbox: &'a mut Vec<(C, C, M)>,
    sent: usize,
}

impl<C: Copy + PartialEq + std::fmt::Debug, M> HashCtx<'_, C, M> {
    /// Send `msg` to the neighboring node `to`, arriving next round.
    ///
    /// # Panics
    /// If `to` is not a neighbor of the sending node — the paper's system
    /// model only has neighbor links.
    pub fn send(&mut self, to: C, msg: M) {
        assert!(
            (self.neighbor_check)(self.coord, to),
            "{:?} tried to send to non-neighbor {:?}",
            self.coord,
            to
        );
        self.outbox.push((self.coord, to, msg));
        self.sent += 1;
    }

    /// The coordinate of the node executing the handler.
    pub fn me(&self) -> C {
        self.coord
    }
}

/// The pre-refactor deterministic synchronous network over an arbitrary
/// coordinate set.
///
/// `C` is the node coordinate (ordered for determinism), `S` the per-node
/// state, `M` the message payload.
pub struct HashSimNet<C, S, M> {
    coords: Vec<C>,
    index: HashMap<C, usize>,
    states: Vec<S>,
    inboxes: Vec<Vec<(C, M)>>,
    neighbor_check: Box<dyn Fn(C, C) -> bool>,
}

impl<C, S, M> HashSimNet<C, S, M>
where
    C: Copy + Eq + Hash + Ord + std::fmt::Debug,
    M: Clone,
{
    /// Build a network over `coords` with per-node initial state from
    /// `init` and the link relation `neighbor_check`.
    pub fn new(
        coords: impl IntoIterator<Item = C>,
        mut init: impl FnMut(C) -> S,
        neighbor_check: impl Fn(C, C) -> bool + 'static,
    ) -> Self {
        let mut coords: Vec<C> = coords.into_iter().collect();
        coords.sort();
        coords.dedup();
        let index: HashMap<C, usize> = coords
            .iter()
            .copied()
            .enumerate()
            .map(|(i, c)| (c, i))
            .collect();
        let states: Vec<S> = coords.iter().map(|&c| init(c)).collect();
        let inboxes = coords.iter().map(|_| Vec::new()).collect();
        HashSimNet {
            coords,
            index,
            states,
            inboxes,
            neighbor_check: Box::new(neighbor_check),
        }
    }

    /// Borrow a node's state.
    ///
    /// # Panics
    /// If `c` is not a node of this network.
    pub fn state(&self, c: C) -> &S {
        &self.states[self.index[&c]]
    }

    /// Mutably borrow a node's state (e.g. to seed protocol inputs).
    ///
    /// # Panics
    /// If `c` is not a node of this network.
    pub fn state_mut(&mut self, c: C) -> &mut S {
        let i = self.index[&c];
        &mut self.states[i]
    }

    /// Iterate `(coordinate, &state)` in coordinate order.
    pub fn iter(&self) -> impl Iterator<Item = (C, &S)> {
        self.coords.iter().copied().zip(self.states.iter())
    }

    /// Inject a message to be delivered to `to` at the start of the next
    /// `run`. The sender is recorded as `to` itself.
    pub fn post(&mut self, to: C, msg: M) {
        let i = self.index[&to];
        self.inboxes[i].push((to, msg));
    }

    /// Run synchronous rounds until quiescence or `max_rounds`.
    ///
    /// Each round, every node's `step` runs once, in coordinate order,
    /// seeing the messages sent to it the previous round. The run stops
    /// after a round in which no messages were delivered and none were
    /// sent. Returns the statistics of **this** run.
    pub fn run(
        &mut self,
        max_rounds: usize,
        mut step: impl FnMut(&mut S, &[(C, M)], &mut HashCtx<'_, C, M>),
    ) -> RunStats {
        let mut run_stats = RunStats::default();
        let mut outbox: Vec<(C, C, M)> = Vec::new();
        for _round in 0..max_rounds {
            let inflight: usize = self.inboxes.iter().map(|b| b.len()).sum();
            outbox.clear();
            let mut sent_this_round = 0usize;
            for i in 0..self.coords.len() {
                let coord = self.coords[i];
                // Deterministic inbox order.
                self.inboxes[i].sort_by_key(|m| m.0);
                let inbox = std::mem::take(&mut self.inboxes[i]);
                let mut ctx = HashCtx {
                    round: run_stats.rounds,
                    coord,
                    neighbor_check: &*self.neighbor_check,
                    outbox: &mut outbox,
                    sent: 0,
                };
                step(&mut self.states[i], &inbox, &mut ctx);
                sent_this_round += ctx.sent;
            }
            // Deliver.
            for (from, to, msg) in outbox.drain(..) {
                let i = self.index[&to];
                self.inboxes[i].push((from, msg));
            }
            run_stats.rounds += 1;
            run_stats.messages += sent_this_round;
            run_stats.max_inflight = run_stats.max_inflight.max(sent_this_round);
            if inflight == 0 && sent_this_round == 0 {
                run_stats.quiescent = true;
                break;
            }
        }
        run_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::c2;
    use mesh_topo::{Mesh2D, C2};

    fn line_net(n: i32) -> HashSimNet<C2, u32, u32> {
        let mesh = Mesh2D::new(n, 1);
        HashSimNet::new(mesh.nodes(), |_| 0u32, |a: C2, b: C2| a.dist(b) == 1)
    }

    #[test]
    fn quiescent_immediately_without_stimulus() {
        let mut net = line_net(5);
        let stats = net.run(100, |_, _, _| {});
        assert!(stats.quiescent);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn token_travels_one_hop_per_round() {
        let mut net = line_net(6);
        net.post(c2(0, 0), 0u32);
        let stats = net.run(100, |state, inbox, ctx| {
            for &(_, hops) in inbox {
                *state = hops;
                let next = c2(ctx.me().x + 1, 0);
                if next.x < 6 {
                    ctx.send(next, hops + 1);
                }
            }
        });
        assert!(stats.quiescent);
        // 5 link traversals for 6 nodes.
        assert_eq!(stats.messages, 5);
        assert_eq!(*net.state(c2(5, 0)), 5);
        // Arrival round of the token at the last node is its distance + 1.
        assert!(stats.rounds >= 6);
    }

    #[test]
    #[should_panic]
    fn non_neighbor_send_panics() {
        let mut net = line_net(5);
        net.post(c2(0, 0), 0u32);
        net.run(10, |_, inbox, ctx| {
            if !inbox.is_empty() {
                ctx.send(c2(4, 0), 9); // teleport attempt
            }
        });
    }

    #[test]
    fn round_limit_stops_runaway() {
        let mut net = line_net(3);
        net.post(c2(0, 0), 0);
        let stats = net.run(7, |_, inbox, ctx| {
            // Ping-pong forever.
            for _ in inbox {
                let me = ctx.me();
                let other = if me.x == 0 { c2(1, 0) } else { c2(me.x - 1, 0) };
                ctx.send(other, 0);
            }
        });
        assert!(!stats.quiescent);
        assert_eq!(stats.rounds, 7);
    }
}
