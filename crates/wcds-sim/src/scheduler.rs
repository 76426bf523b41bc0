use crate::context::{Context, Outgoing};
use crate::{FaultPlan, MessageStats, ProcId, Protocol, SimReport, Time, TraceEvent, TraceLog};
use wcds_rng::{ChaCha12Rng, Rng};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use wcds_graph::Graph;

/// Per-step invariant inspector: receives the virtual time and every
/// node's state, returns an error message to abort the run.
type Inspector<'a, P> = &'a mut dyn FnMut(Time, &[P]) -> Result<(), String>;

/// How events are ordered in virtual time.
#[derive(Debug, Clone)]
enum ScheduleKind {
    /// Lock-step rounds: a message sent in round `r` is delivered in
    /// round `r + 1`; all deliveries of a round happen "simultaneously"
    /// (processed in deterministic id order). This is the model behind
    /// the paper's `O(n)` time-complexity claims.
    Synchronous,
    /// Per-message delivery with seeded pseudo-random delays in
    /// `1..=max_delay`. Exercises protocols without the lock-step crutch.
    Asynchronous { seed: u64, max_delay: Time },
}

/// Execution schedule plus run options.
///
/// # Examples
///
/// ```
/// use wcds_sim::{FaultPlan, Schedule};
///
/// let s = Schedule::asynchronous(42)
///     .with_fault_plan(FaultPlan::new(1).crash(3))
///     .with_trace(1000);
/// let _ = s;
/// ```
#[derive(Debug, Clone)]
pub struct Schedule {
    kind: ScheduleKind,
    fault: FaultPlan,
    max_events: u64,
    trace_capacity: usize,
    sync_descending: bool,
}

impl Schedule {
    /// The synchronous, lock-step-rounds schedule.
    pub fn synchronous() -> Self {
        Self {
            kind: ScheduleKind::Synchronous,
            fault: FaultPlan::default(),
            max_events: 50_000_000,
            trace_capacity: 0,
            sync_descending: false,
        }
    }

    /// An asynchronous schedule with per-message delays drawn
    /// deterministically from `seed` (uniform in `1..=8`).
    pub fn asynchronous(seed: u64) -> Self {
        Self { kind: ScheduleKind::Asynchronous { seed, max_delay: 8 }, ..Self::synchronous() }
    }

    /// Overrides the maximum per-message delay of an asynchronous
    /// schedule (no effect on a synchronous one).
    ///
    /// # Panics
    ///
    /// Panics if `max_delay` is zero.
    pub fn with_max_delay(mut self, max_delay: Time) -> Self {
        assert!(max_delay >= 1, "max_delay must be at least 1");
        if let ScheduleKind::Asynchronous { max_delay: d, .. } = &mut self.kind {
            *d = max_delay;
        }
        self
    }

    /// Attaches a fault plan.
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Caps the number of executed events (defence against non-quiescent
    /// protocols). Default: 50 million.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Enables event tracing, retaining up to `capacity` events in the
    /// report.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Processes each synchronous round's deliveries in **descending**
    /// recipient/sender order instead of ascending — an adversarial
    /// ordering for shaking out hidden order dependencies in protocols
    /// that should be confluent. No effect on asynchronous schedules.
    pub fn with_descending_order(mut self) -> Self {
        self.sync_descending = true;
        self
    }
}

/// A simulation failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol was still generating events after the configured
    /// event budget; it is likely non-quiescent (livelocked).
    EventBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// An inspector attached via [`Simulator::run_inspected`] rejected
    /// an intermediate state.
    InvariantViolated {
        /// Virtual time at which the invariant failed.
        time: Time,
        /// The inspector's explanation.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "protocol still active after {budget} events; likely non-quiescent")
            }
            SimError::InvariantViolated { time, message } => {
                write!(f, "invariant violated at time {time}: {message}")
            }
        }
    }
}

impl Error for SimError {}

/// A scheduled event: the delivery of `msg` from `from` to `to`, or a
/// timer firing at `to` when `msg` is `None`. A broadcast's receivers
/// share one payload.
#[derive(Debug)]
struct Event<M> {
    from: ProcId,
    to: ProcId,
    msg: Option<Rc<M>>,
}

/// Pending events bucketed by virtual time, each bucket in push order.
///
/// Every push lands strictly after the time of the last popped bucket,
/// so popping buckets earliest first and draining each in order yields
/// events in `(time, push order)` order. Drained buckets are recycled,
/// so memory is bounded by the events in flight, not the run's length.
#[derive(Debug)]
struct Calendar<M> {
    buckets: BTreeMap<Time, Vec<Event<M>>>,
    spare: Vec<Vec<Event<M>>>,
    now: Time,
}

impl<M> Calendar<M> {
    fn new() -> Self {
        Self { buckets: BTreeMap::new(), spare: Vec::new(), now: 0 }
    }

    fn push(&mut self, at: Time, event: Event<M>) {
        debug_assert!(at > self.now, "event at {at} is not after now = {}", self.now);
        let spare = &mut self.spare;
        self.buckets.entry(at).or_insert_with(|| spare.pop().unwrap_or_default()).push(event);
    }

    /// Removes the earliest bucket and advances the clock to its time.
    fn pop(&mut self) -> Option<(Time, Vec<Event<M>>)> {
        let (at, bucket) = self.buckets.pop_first()?;
        self.now = at;
        Some((at, bucket))
    }

    fn recycle(&mut self, mut bucket: Vec<Event<M>>) {
        bucket.clear();
        self.spare.push(bucket);
    }
}

/// Delivery delays: always 1 (the next round) under the synchronous
/// schedule, seeded uniform draws in `1..=max` under the asynchronous one.
enum Delays {
    Unit,
    Uniform { rng: ChaCha12Rng, max: Time },
}

impl Delays {
    fn next(&mut self) -> Time {
        match self {
            Delays::Unit => 1,
            Delays::Uniform { rng, max } => rng.gen_range(1..=*max),
        }
    }
}

/// The state of one run, shared by both schedules.
struct Run<M> {
    calendar: Calendar<M>,
    delays: Delays,
    fault: FaultPlan,
    stats: MessageStats,
    trace: TraceLog,
    /// Send and timer buffers lent to each callback's [`Context`].
    outgoing: Vec<Outgoing<M>>,
    timers: Vec<Time>,
    events: u64,
    max_events: u64,
}

impl<M> Run<M> {
    /// Counts one executed event against the budget.
    fn count_event(&mut self) -> Result<(), SimError> {
        self.events += 1;
        if self.events > self.max_events {
            return Err(SimError::EventBudgetExhausted { budget: self.max_events });
        }
        Ok(())
    }

    fn into_report(self, rounds: u64, time: Time) -> SimReport {
        SimReport { rounds, time, messages: self.stats, events: self.events, trace: self.trace }
    }
}

fn inspect<P>(inspector: Inspector<'_, P>, time: Time, nodes: &[P]) -> Result<(), SimError> {
    inspector(time, nodes).map_err(|message| SimError::InvariantViolated { time, message })
}

/// Runs one [`Protocol`] instance per node of a topology graph.
///
/// The simulator owns the per-node protocol states; inspect them with
/// [`Simulator::nodes`] / [`Simulator::node`] after a run to extract the
/// protocol's output.
#[derive(Debug)]
pub struct Simulator<P: Protocol> {
    adj: Vec<Vec<ProcId>>,
    nodes: Vec<P>,
}

impl<P: Protocol> Simulator<P> {
    /// Instantiates the protocol on every node of `graph`.
    ///
    /// The factory receives each node id; use it to inject per-node
    /// configuration (e.g. protocol-level IDs distinct from indices).
    pub fn new<F>(graph: &Graph, mut factory: F) -> Self
    where
        F: FnMut(ProcId) -> P,
    {
        let adj: Vec<Vec<ProcId>> = graph.nodes().map(|u| graph.adj(u).collect()).collect();
        let nodes = graph.nodes().map(&mut factory).collect();
        Self { adj, nodes }
    }

    /// The per-node protocol states.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The protocol state of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node(&self, u: ProcId) -> &P {
        &self.nodes[u]
    }

    /// Mutable access to the protocol state of node `u`.
    ///
    /// Intended for harnesses that drive multi-phase protocols: between
    /// `run` calls they may flip phase flags or inject work. Mutating
    /// state *during* a run is impossible (the simulator holds the
    /// borrow).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_mut(&mut self, u: ProcId) -> &mut P {
        &mut self.nodes[u]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Replaces the topology between runs (node motion): the next `run`
    /// sees the new adjacency while every node keeps its protocol
    /// state. This is how maintenance protocols are driven — change the
    /// topology, re-run, and let nodes react to what their
    /// [`Context::neighbors`] now reports.
    ///
    /// # Panics
    ///
    /// Panics if the node count differs from the original topology's.
    pub fn set_topology(&mut self, graph: &Graph) {
        assert_eq!(
            graph.node_count(),
            self.nodes.len(),
            "topology change must preserve the node count"
        );
        self.adj = graph.nodes().map(|u| graph.adj(u).collect()).collect();
    }

    /// Executes the protocol to quiescence under `schedule`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if the protocol is
    /// still producing events past the schedule's event budget.
    pub fn run(&mut self, schedule: Schedule) -> Result<SimReport, SimError> {
        self.run_inspected(schedule, |_, _| Ok(()))
    }

    /// Like [`Simulator::run`], but calls `inspector` on every
    /// intermediate global state — after each round under the
    /// synchronous schedule, after each delivered event under the
    /// asynchronous one. Returning `Err` aborts the run.
    ///
    /// This is how tests check *safety* invariants (e.g. "no two
    /// adjacent nodes are ever both MIS dominators") rather than only
    /// the final state.
    ///
    /// # Errors
    ///
    /// [`SimError::EventBudgetExhausted`] as for `run`, or
    /// [`SimError::InvariantViolated`] when the inspector rejects.
    pub fn run_inspected<F>(
        &mut self,
        schedule: Schedule,
        mut inspector: F,
    ) -> Result<SimReport, SimError>
    where
        F: FnMut(Time, &[P]) -> Result<(), String>,
    {
        let Schedule { kind, fault, max_events, trace_capacity, sync_descending } = schedule;
        let delays = match kind {
            ScheduleKind::Synchronous => Delays::Unit,
            ScheduleKind::Asynchronous { seed, max_delay } => {
                Delays::Uniform { rng: ChaCha12Rng::seed_from_u64(seed), max: max_delay }
            }
        };
        let mut run = Run {
            calendar: Calendar::new(),
            delays,
            fault,
            stats: MessageStats::new(self.nodes.len()),
            trace: TraceLog::with_capacity(trace_capacity),
            outgoing: Vec::new(),
            timers: Vec::new(),
            events: 0,
            max_events,
        };
        for node in 0..self.nodes.len() {
            if run.fault.is_crashed(node) {
                continue;
            }
            run.trace.push(TraceEvent::Start { node, time: 0 });
            run.events += 1;
            self.dispatch(&mut run, node, 0, Callback::Start);
        }
        inspect(&mut inspector, 0, &self.nodes)?;
        match kind {
            ScheduleKind::Synchronous => self.run_synchronous(run, sync_descending, &mut inspector),
            ScheduleKind::Asynchronous { .. } => self.run_asynchronous(run, &mut inspector),
        }
    }

    /// Lock-step rounds: round `r` is the calendar's bucket at time
    /// `r`, executed as a whole in deterministic id order, then
    /// inspected. Rounds with no events still count and are inspected.
    fn run_synchronous(
        &mut self,
        mut run: Run<P::Message>,
        descending: bool,
        inspector: Inspector<'_, P>,
    ) -> Result<SimReport, SimError> {
        let mut round: Time = 0;
        while let Some((at, mut bucket)) = run.calendar.pop() {
            while round + 1 < at {
                round += 1;
                inspect(inspector, round, &self.nodes)?;
            }
            round = at;
            // messages before timers; then by (recipient, sender) —
            // ascending normally, descending under the adversarial order
            if descending {
                bucket.sort_by_key(|e| (e.msg.is_none(), Reverse(e.to), Reverse(e.from)));
            } else {
                bucket.sort_by_key(|e| (e.msg.is_none(), e.to, e.from));
            }
            for event in bucket.drain(..) {
                if run.fault.is_crashed(event.to) {
                    continue;
                }
                run.count_event()?;
                self.execute(&mut run, event, round);
            }
            run.calendar.recycle(bucket);
            inspect(inspector, round, &self.nodes)?;
        }
        Ok(run.into_report(round, round))
    }

    /// Per-event execution in `(time, push order)` order, inspected
    /// after every event that reached a live node.
    fn run_asynchronous(
        &mut self,
        mut run: Run<P::Message>,
        inspector: Inspector<'_, P>,
    ) -> Result<SimReport, SimError> {
        let mut now: Time = 0;
        while let Some((at, mut bucket)) = run.calendar.pop() {
            now = at;
            for event in bucket.drain(..) {
                run.count_event()?;
                if !run.fault.is_crashed(event.to) && self.execute(&mut run, event, now) {
                    inspect(inspector, now, &self.nodes)?;
                }
            }
            run.calendar.recycle(bucket);
        }
        Ok(run.into_report(0, now))
    }

    /// Executes one event addressed to a live node: a timer, or a
    /// delivery from a live sender. Returns whether a callback ran.
    fn execute(&mut self, run: &mut Run<P::Message>, event: Event<P::Message>, now: Time) -> bool {
        let Event { from, to, msg } = event;
        match msg {
            None => {
                run.trace.push(TraceEvent::Timer { node: to, time: now });
                self.dispatch(run, to, now, Callback::Timer);
                true
            }
            Some(_) if run.fault.is_crashed(from) => false,
            Some(msg) => self.deliver(run, from, to, msg, now),
        }
    }

    /// Applies the fault plan's fate to one delivery and runs
    /// `on_message` once per surviving copy. Returns `false` if the
    /// delivery was dropped.
    fn deliver(
        &mut self,
        run: &mut Run<P::Message>,
        from: ProcId,
        to: ProcId,
        msg: Rc<P::Message>,
        now: Time,
    ) -> bool {
        let copies = run.fault.delivery_copies();
        if copies == 0 {
            run.trace.push(TraceEvent::Drop { from, to, time: now });
            return false;
        }
        for _ in 1..copies {
            self.deliver_copy(run, from, to, P::Message::clone(&msg), now);
        }
        // the last holder of a shared payload takes it without cloning
        let msg = Rc::try_unwrap(msg).unwrap_or_else(|shared| P::Message::clone(&shared));
        self.deliver_copy(run, from, to, msg, now);
        true
    }

    fn deliver_copy(
        &mut self,
        run: &mut Run<P::Message>,
        from: ProcId,
        to: ProcId,
        msg: P::Message,
        now: Time,
    ) {
        run.stats.record_delivery();
        run.trace.push(TraceEvent::Deliver { from, to, kind: P::message_kind(&msg), time: now });
        self.dispatch(run, to, now, Callback::Message(from, msg));
    }

    /// Runs one callback of `node`, then schedules what it sent — each
    /// delivery after a delay drawn in send order — and the timers it set.
    fn dispatch(
        &mut self,
        run: &mut Run<P::Message>,
        node: ProcId,
        now: Time,
        what: Callback<P::Message>,
    ) {
        let neighbors = &self.adj[node];
        let mut ctx = Context::new(node, neighbors, now, &mut run.outgoing, &mut run.timers);
        let state = &mut self.nodes[node];
        match what {
            Callback::Start => state.on_start(&mut ctx),
            Callback::Message(from, msg) => state.on_message(from, msg, &mut ctx),
            Callback::Timer => state.on_timer(&mut ctx),
        }
        for out in run.outgoing.drain(..) {
            let (msg, unicast) = match out {
                Outgoing::Broadcast(msg) => (msg, None),
                Outgoing::Unicast(to, msg) => (msg, Some(to)),
            };
            let kind = P::message_kind(&msg);
            run.stats.record_send(node, kind, P::message_payload(&msg));
            run.trace.push(TraceEvent::Send { from: node, kind, time: now });
            let msg = Rc::new(msg);
            let receivers = unicast.as_ref().map_or(neighbors.as_slice(), std::slice::from_ref);
            for &to in receivers {
                let at = now.saturating_add(run.delays.next());
                run.calendar.push(at, Event { from: node, to, msg: Some(Rc::clone(&msg)) });
            }
        }
        for at in run.timers.drain(..) {
            run.calendar.push(at, Event { from: node, to: node, msg: None });
        }
    }
}

/// Which callback a dispatch runs.
enum Callback<M> {
    Start,
    Message(ProcId, M),
    Timer,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_pops_in_time_then_push_order() {
        let mut cal: Calendar<()> = Calendar::new();
        for (at, to) in [(3, 0), (1, 1), (3, 2), (2, 3), (1, 4)] {
            cal.push(at, Event { from: 0, to, msg: None });
        }
        let mut order = Vec::new();
        while let Some((at, mut bucket)) = cal.pop() {
            order.extend(bucket.drain(..).map(|e| (at, e.to)));
            cal.recycle(bucket);
        }
        assert_eq!(order, vec![(1, 1), (1, 4), (2, 3), (3, 0), (3, 2)]);
        assert_eq!(cal.spare.len(), 3, "drained buckets are kept for reuse");
    }
}
