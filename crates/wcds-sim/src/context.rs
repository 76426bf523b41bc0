use crate::{ProcId, Time};

/// What one send primitive produced: a local broadcast or a unicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outgoing<M> {
    /// Delivered to every 1-hop neighbor; charged as **one** message
    /// (radio broadcast).
    Broadcast(M),
    /// Delivered to a single neighbor; also one message.
    Unicast(ProcId, M),
}

/// A node's window onto the network during a callback.
///
/// The context exposes exactly what the paper allows a node to know:
/// its own identifier, the identifiers of its 1-hop neighbors, and the
/// current virtual time. Sending is buffered in the simulator's reusable
/// buffers, which it flushes when the callback returns.
#[derive(Debug)]
pub struct Context<'a, M> {
    id: ProcId,
    neighbors: &'a [ProcId],
    now: Time,
    outgoing: &'a mut Vec<Outgoing<M>>,
    timers: &'a mut Vec<Time>,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(
        id: ProcId,
        neighbors: &'a [ProcId],
        now: Time,
        outgoing: &'a mut Vec<Outgoing<M>>,
        timers: &'a mut Vec<Time>,
    ) -> Self {
        Self { id, neighbors, now, outgoing, timers }
    }

    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The sorted identifiers of this node's 1-hop neighbors.
    #[inline]
    pub fn neighbors(&self) -> &[ProcId] {
        self.neighbors
    }

    /// Number of neighbors.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether `other` is a 1-hop neighbor.
    pub fn is_neighbor(&self, other: ProcId) -> bool {
        self.neighbors.binary_search(&other).is_ok()
    }

    /// Current virtual time (round number under the synchronous schedule).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Broadcasts `msg` to every 1-hop neighbor.
    ///
    /// Charged as **one** transmitted message regardless of degree — this
    /// is the radio model the paper's `O(n)` message bounds assume ("each
    /// node sends only a constant number of messages").
    pub fn broadcast(&mut self, msg: M) {
        self.outgoing.push(Outgoing::Broadcast(msg));
    }

    /// Sends `msg` to the single neighbor `to`; charged as one message.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a 1-hop neighbor — a radio cannot address a
    /// node it cannot hear.
    pub fn send(&mut self, to: ProcId, msg: M) {
        assert!(
            self.is_neighbor(to),
            "node {} cannot unicast to non-neighbor {to}",
            self.id
        );
        self.outgoing.push(Outgoing::Unicast(to, msg));
    }

    /// Schedules [`crate::Protocol::on_timer`] to fire after `delay`
    /// time units (at least 1); the firing time saturates at
    /// [`Time::MAX`].
    pub fn set_timer(&mut self, delay: Time) {
        self.timers.push(self.now.saturating_add(delay.max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on a context for node `id` with `nbrs` at time `now`
    /// and returns what it buffered.
    fn buffered<M>(
        id: ProcId,
        nbrs: &[ProcId],
        now: Time,
        f: impl FnOnce(&mut Context<'_, M>),
    ) -> (Vec<Outgoing<M>>, Vec<Time>) {
        let (mut outgoing, mut timers) = (Vec::new(), Vec::new());
        f(&mut Context::new(id, nbrs, now, &mut outgoing, &mut timers));
        (outgoing, timers)
    }

    #[test]
    fn accessors_reflect_construction() {
        buffered::<()>(3, &[1, 4, 7], 5, |ctx| {
            assert_eq!(ctx.id(), 3);
            assert_eq!(ctx.degree(), 3);
            assert_eq!(ctx.now(), 5);
            assert!(ctx.is_neighbor(4));
            assert!(!ctx.is_neighbor(3));
        });
    }

    #[test]
    fn broadcast_buffers_one_entry() {
        let (outgoing, _) = buffered(0, &[1, 2], 0, |ctx| ctx.broadcast(9u8));
        assert_eq!(outgoing, vec![Outgoing::Broadcast(9)]);
    }

    #[test]
    fn unicast_to_neighbor_ok() {
        let (outgoing, _) = buffered(0, &[2], 0, |ctx| ctx.send(2, 7u8));
        assert_eq!(outgoing, vec![Outgoing::Unicast(2, 7)]);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn unicast_to_stranger_panics() {
        buffered(0, &[2], 0, |ctx| ctx.send(3, 7u8));
    }

    #[test]
    fn timer_fires_strictly_later() {
        let (_, timers) = buffered::<()>(0, &[], 10, |ctx| {
            ctx.set_timer(0);
            ctx.set_timer(5);
        });
        assert_eq!(timers, vec![11, 15]);
    }

    #[test]
    fn timer_delay_saturates_instead_of_overflowing() {
        let (_, timers) = buffered::<()>(0, &[], 10, |ctx| ctx.set_timer(Time::MAX));
        assert_eq!(timers, vec![Time::MAX]);
    }
}
