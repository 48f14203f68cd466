//! The flat, index-addressed synchronous round engine.
//!
//! Nodes are linear indices `0..space.len()` into dense state and
//! inbox arrays; the network is a `Copy` [`NodeSpace`] value — a mesh or torus
//! node space — instead of a boxed link closure, and two nodes are linked
//! when their topology-aware distance is 1 (torus wrap links included).
//! Message delivery is a **double buffer**: every send of a round lands in
//! one shared outbox `Vec`, and an `O(messages + nodes)`
//! counting pass turns it into the next round's inbox view (a CSR layout:
//! one offset table, one index list grouped by recipient, one payload slab
//! in send order). No comparison sort runs, each payload is moved exactly
//! once, no per-node `Vec` is ever allocated, and every buffer keeps its
//! capacity across rounds.
//!
//! Dispatch is event-driven after round 0: a [`mesh_topo::NodeSet`] tracks
//! which nodes received messages, and only those run their handler. Round 0
//! of every [`SimNet::run`] dispatches **all** nodes (protocols use it to
//! announce initial state without a stimulus message); from round 1 on a
//! node whose inbox is empty is skipped, so converged regions of the mesh
//! cost nothing while a protocol's active frontier keeps working. Handlers
//! must therefore change state only in round 0 or in response to messages —
//! exactly the discipline the paper's protocols already follow.
//!
//! Statistics (rounds, messages, max in-flight, quiescence) are accounted
//! identically to the pre-refactor hash engine; the parity tests in
//! `mcc-protocols`, which keep that engine as their oracle, pin this.

use mesh_topo::{Coord, NodeSet, NodeSpace};

use crate::stats::RunStats;
use crate::topology::linked;

/// Error returned by [`Ctx::try_send`] for a send to a non-neighbor.
///
/// The paper's system model only has neighbor links, so a non-neighbor
/// send is always a protocol bug. [`Ctx::send`] checks the link with a
/// `debug_assert!` (tests fail loudly, release sweeps pay nothing);
/// `try_send` checks it always and surfaces the violation as a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SendError {
    /// Index of the node that attempted the send.
    pub from: usize,
    /// The non-neighbor index it tried to reach.
    pub to: usize,
}

impl core::fmt::Display for SendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "node {} tried to send to non-neighbor {}",
            self.from, self.to
        )
    }
}

impl std::error::Error for SendError {}

/// Per-step context handed to a node's handler: the current round number
/// and an outbox for neighbor sends.
pub struct Ctx<'a, C: Coord, M> {
    /// The current round (0-based within this `run`).
    pub round: usize,
    me: u32,
    space: NodeSpace<C>,
    outbox: &'a mut Vec<(u32, u32, M)>,
    sent: usize,
}

impl<C: Coord, M> Ctx<'_, C, M> {
    /// The index of the node executing the handler.
    #[inline]
    pub fn me(&self) -> usize {
        self.me as usize
    }

    /// The coordinate of the node executing the handler.
    #[inline]
    pub fn coord(&self) -> C {
        self.space.coord(self.me as usize)
    }

    /// Send `msg` to the neighboring node `to`, arriving next round.
    ///
    /// The neighbor link is checked with a `debug_assert!`: a malformed
    /// protocol fails its tests instead of aborting a release sweep. Use
    /// [`Ctx::try_send`] where the link is not statically evident.
    #[inline]
    pub fn send(&mut self, to: usize, msg: M) {
        debug_assert!(
            linked(self.space, self.me as usize, to),
            "node {} tried to send to non-neighbor {}",
            self.me,
            to
        );
        self.outbox.push((to as u32, self.me, msg));
        self.sent += 1;
    }

    /// Send `msg` to `to` if it is a neighbor, or report the malformed
    /// send as a typed [`SendError`] (in every build profile).
    #[inline]
    pub fn try_send(&mut self, to: usize, msg: M) -> Result<(), SendError> {
        if !linked(self.space, self.me as usize, to) {
            return Err(SendError {
                from: self.me as usize,
                to,
            });
        }
        self.outbox.push((to as u32, self.me, msg));
        self.sent += 1;
        Ok(())
    }
}

/// One node's view of its messages for the current round.
///
/// The engine keeps all of a round's messages in one slab (in arrival =
/// send order) and hands each node an index list over it: iteration is one
/// `u32` indirection per message, and no message is ever moved again after
/// delivery. Iterate it directly (`for &(from, msg) in inbox`) or via
/// [`Inbox::iter`]; items are `&(sender index, payload)`.
#[derive(Clone, Copy)]
pub struct Inbox<'a, M> {
    data: &'a [(u32, M)],
    order: &'a [u32],
}

impl<'a, M> Inbox<'a, M> {
    /// Number of messages delivered to this node this round.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing was delivered to this node this round.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterate `&(sender index, payload)` in sender dispatch order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &'a (u32, M)> + '_ {
        self.order.iter().map(|&k| &self.data[k as usize])
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = &'a (u32, M);
    type IntoIter = InboxIter<'a, M>;

    #[inline]
    fn into_iter(self) -> InboxIter<'a, M> {
        InboxIter {
            data: self.data,
            order: self.order.iter(),
        }
    }
}

/// Iterator over an [`Inbox`].
pub struct InboxIter<'a, M> {
    data: &'a [(u32, M)],
    order: core::slice::Iter<'a, u32>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = &'a (u32, M);

    #[inline]
    fn next(&mut self) -> Option<&'a (u32, M)> {
        self.order.next().map(|&k| &self.data[k as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.order.size_hint()
    }
}

/// A deterministic synchronous network over a node space with coordinates
/// `C`.
///
/// `S` is the per-node state, `M` the message payload. Nodes are addressed
/// by the space's linear index; [`SimNet::state_at`] bridges from
/// coordinates where convenient.
pub struct SimNet<C: Coord, S, M> {
    space: NodeSpace<C>,
    states: Vec<S>,
    /// This round's messages, `(from, payload)`, in arrival order.
    inbox_data: Vec<(u32, M)>,
    /// Slab indices grouped by recipient: node `i`'s inbox order is
    /// `inbox_order[inbox_start[i] .. inbox_start[i + 1]]`.
    inbox_order: Vec<u32>,
    inbox_start: Vec<u32>,
    /// Counting-sort write cursors (scratch, one per node).
    cursor: Vec<u32>,
    /// Next round's messages, `(to, from, payload)`, in send order.
    outbox: Vec<(u32, u32, M)>,
    /// Nodes with a non-empty inbox this round.
    active: NodeSet,
    stats: RunStats,
}

impl<C: Coord, S, M> SimNet<C, S, M> {
    /// Build a network over `space` with per-node initial state from
    /// `init` (called with each node's linear index, in index order).
    pub fn new(space: NodeSpace<C>, init: impl FnMut(usize) -> S) -> Self {
        let n = space.len();
        let states: Vec<S> = (0..n).map(init).collect();
        SimNet {
            space,
            states,
            inbox_data: Vec::new(),
            inbox_order: Vec::new(),
            inbox_start: vec![0; n + 1],
            cursor: vec![0; n],
            outbox: Vec::new(),
            active: NodeSet::new(n),
            stats: RunStats::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The network's node space.
    #[inline]
    pub fn space(&self) -> NodeSpace<C> {
        self.space
    }

    /// Borrow the state of node index `i`.
    #[inline]
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// Mutably borrow the state of node index `i`.
    #[inline]
    pub fn state_mut(&mut self, i: usize) -> &mut S {
        &mut self.states[i]
    }

    /// Borrow the state of the node at coordinate `c`.
    ///
    /// # Panics
    /// If `c` is not a node of the network.
    pub fn state_at(&self, c: C) -> &S {
        let i = self
            .space
            .index_checked(c)
            .unwrap_or_else(|| panic!("{c:?} is not a node of this network"));
        &self.states[i]
    }

    /// Mutably borrow the state of the node at coordinate `c`.
    ///
    /// # Panics
    /// If `c` is not a node of the network.
    pub fn state_at_mut(&mut self, c: C) -> &mut S {
        let i = self
            .space
            .index_checked(c)
            .unwrap_or_else(|| panic!("{c:?} is not a node of this network"));
        &mut self.states[i]
    }

    /// Iterate `(index, &state)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &S)> {
        self.states.iter().enumerate()
    }

    /// Iterate `(coordinate, &state)` in index order.
    pub fn iter_coords(&self) -> impl Iterator<Item = (C, &S)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (self.space.coord(i), s))
    }

    /// Statistics accumulated over all `run` calls so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Inject a message to be delivered to node index `to` at the start of
    /// the next `run` (models an external stimulus, e.g. a routing request
    /// arriving at the source node). The sender is recorded as `to` itself.
    ///
    /// # Panics
    /// If `to` is out of range.
    pub fn post(&mut self, to: usize, msg: M) {
        assert!(to < self.states.len(), "post target {to} out of range");
        self.outbox.push((to as u32, to as u32, msg));
    }

    /// Move the outbox into the inbox slab and group it by recipient in
    /// `O(messages + nodes)`, comparison-free. Stable: each node's inbox
    /// is ordered by sender dispatch order (ascending sender index, then
    /// send order).
    fn deliver(&mut self) {
        self.active.clear();
        self.inbox_data.clear();
        self.inbox_start.iter_mut().for_each(|o| *o = 0);
        // Counting pass: inbox_start[i + 1] accumulates node i's count.
        for &(to, _, _) in &self.outbox {
            self.inbox_start[to as usize + 1] += 1;
        }
        for i in 1..self.inbox_start.len() {
            self.inbox_start[i] += self.inbox_start[i - 1];
        }
        // Scatter pass: move each payload into the slab (exactly once, in
        // send order) and place its slab index at its recipient's cursor —
        // iterating in send order keeps every inbox stable. No comparison
        // sort anywhere.
        let n = self.cursor.len();
        self.cursor.copy_from_slice(&self.inbox_start[..n]);
        self.inbox_order.resize(self.outbox.len(), 0);
        for (k, (to, from, msg)) in self.outbox.drain(..).enumerate() {
            self.inbox_data.push((from, msg));
            let c = &mut self.cursor[to as usize];
            self.inbox_order[*c as usize] = k as u32;
            *c += 1;
            self.active.insert(to as usize);
        }
    }

    /// Run synchronous rounds until quiescence or `max_rounds`.
    ///
    /// Round 0 dispatches every node; later rounds dispatch only nodes
    /// whose inbox is non-empty (see the module docs for the handler
    /// discipline this implies). A node's handler sees the messages sent
    /// to it the previous round as `(sender index, payload)` pairs. The
    /// run stops after a round in which no messages were delivered and
    /// none were sent. Returns the statistics of **this** run.
    pub fn run(
        &mut self,
        max_rounds: usize,
        mut step: impl FnMut(&mut S, Inbox<'_, M>, &mut Ctx<'_, C, M>),
    ) -> RunStats {
        let mut run_stats = RunStats::default();
        for round in 0..max_rounds {
            self.deliver();
            let inflight = self.inbox_data.len();
            let mut sent_this_round = 0usize;
            {
                let SimNet {
                    space,
                    states,
                    inbox_data,
                    inbox_order,
                    inbox_start,
                    outbox,
                    active,
                    ..
                } = self;
                let space: NodeSpace<C> = *space;
                let n = space.len();
                let mut dispatch = |i: usize| {
                    let inbox = Inbox {
                        data: inbox_data,
                        order: &inbox_order[inbox_start[i] as usize..inbox_start[i + 1] as usize],
                    };
                    let mut ctx = Ctx {
                        round,
                        me: i as u32,
                        space,
                        outbox,
                        sent: 0,
                    };
                    step(&mut states[i], inbox, &mut ctx);
                    sent_this_round += ctx.sent;
                };
                if round == 0 {
                    (0..n).for_each(&mut dispatch);
                } else {
                    active.iter().for_each(&mut dispatch);
                }
            }
            run_stats.rounds += 1;
            run_stats.messages += sent_this_round;
            run_stats.max_inflight = run_stats.max_inflight.max(sent_this_round);
            if inflight == 0 && sent_this_round == 0 {
                run_stats.quiescent = true;
                break;
            }
        }
        self.stats.absorb(run_stats);
        run_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_topo::coord::{c2, c3};
    use mesh_topo::{Dir2, NodeSpace2, NodeSpace3, C2, C3};

    fn line_net(n: i32) -> SimNet<C2, u32, u32> {
        SimNet::new(NodeSpace2::new(n, 1), |_| 0u32)
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
        net.post(0, 0u32);
        let stats = net.run(100, |state, inbox, ctx| {
            for &(_, hops) in inbox {
                *state = hops;
                if ctx.me() + 1 < 6 {
                    ctx.send(ctx.me() + 1, hops + 1);
                }
            }
        });
        assert!(stats.quiescent);
        // 5 link traversals for 6 nodes.
        assert_eq!(stats.messages, 5);
        assert_eq!(*net.state(5), 5);
        assert!(stats.rounds >= 6);
    }

    // In release builds the malformed send is *not* checked (that is the
    // point: sweeps never abort), so the test only has teeth under
    // debug_assertions, where it must panic.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn non_neighbor_send_is_a_debug_assert() {
        let mut net = line_net(5);
        net.post(0, 0u32);
        net.run(10, |_, inbox, ctx| {
            if !inbox.is_empty() {
                ctx.send(4, 9); // teleport attempt
            }
        });
    }

    #[test]
    fn try_send_reports_typed_error() {
        let mut net = line_net(5);
        net.post(0, 0u32);
        let mut errs = Vec::new();
        net.run(10, |_, inbox, ctx| {
            if !inbox.is_empty() && ctx.me() == 0 {
                if let Err(e) = ctx.try_send(4, 9) {
                    errs.push(e);
                }
                ctx.try_send(1, 1).expect("neighbor send succeeds");
            }
        });
        assert_eq!(errs, vec![SendError { from: 0, to: 4 }]);
        assert!(errs[0].to_string().contains("non-neighbor"));
    }

    #[test]
    fn flood_counts_messages_and_skips_quiet_nodes() {
        // Flood from the corner of a 4x4 mesh; every node forwards once.
        let space = NodeSpace2::new(4, 4);
        let mut net: SimNet<C2, bool, ()> = SimNet::new(space, |_| false);
        net.post(space.index(c2(0, 0)), ());
        let stats = net.run(100, move |seen, inbox, ctx| {
            if !inbox.is_empty() && !*seen {
                *seen = true;
                let me = ctx.me();
                for d in Dir2::ALL {
                    if let Some(j) = space.step(me, d) {
                        ctx.send(j, ());
                    }
                }
            }
        });
        assert!(stats.quiescent);
        assert!(net.iter().all(|(_, &seen)| seen));
        // Each node sends to each of its neighbors exactly once: the total
        // equals the number of directed edges = 2 * undirected links.
        assert_eq!(stats.messages, 2 * (2 * 4 * 3));
    }

    #[test]
    fn inboxes_are_grouped_by_sender_order() {
        // Both neighbors of the middle node send in round 0; the middle
        // node's inbox must list the lower sender index first.
        let mut net = line_net(3);
        let mut seen: Vec<(u32, u32)> = Vec::new();
        net.run(3, |_, inbox, ctx| {
            if ctx.round == 0 && ctx.me() != 1 {
                ctx.send(1, ctx.me() as u32);
            }
            if ctx.me() == 1 {
                seen.extend(inbox.iter().map(|&(f, m)| (f, m)));
            }
        });
        assert_eq!(seen, vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn round_limit_stops_runaway() {
        let mut net = line_net(3);
        net.post(0, 0);
        let stats = net.run(7, |_, inbox, ctx| {
            // Ping-pong forever.
            for _ in inbox {
                let other = if ctx.me() == 0 { 1 } else { ctx.me() - 1 };
                ctx.send(other, 0);
            }
        });
        assert!(!stats.quiescent);
        assert_eq!(stats.rounds, 7);
    }

    #[test]
    fn state_access_by_coordinate_and_index() {
        let mut net: SimNet<C3, u32, ()> = SimNet::new(NodeSpace3::new(3, 3, 3), |_| 0);
        *net.state_at_mut(c3(1, 2, 0)) = 42;
        let i = net.space().index(c3(1, 2, 0));
        assert_eq!(*net.state(i), 42);
        assert_eq!(*net.state_at(c3(1, 2, 0)), 42);
        assert_eq!(net.len(), 27);
        assert_eq!(net.iter_coords().filter(|(_, &s)| s == 42).count(), 1);
    }

    #[test]
    fn second_run_redispatches_all_nodes_in_round_zero() {
        // Protocols key initial announcements on `ctx.round == 0`; each
        // `run` call must grant every node that round-0 step.
        let mut net = line_net(4);
        let mut steps = 0usize;
        net.run(5, |_, _, _| {});
        net.run(5, |_, _, _| steps += 1);
        assert_eq!(steps, 4);
    }
}
