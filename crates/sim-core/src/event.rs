//! Event queue and simulation executor.
//!
//! [`Simulation`] owns the world state `W`, the virtual clock, and a
//! priority queue of scheduled events. The general-case event is a boxed
//! `FnOnce` that receives `&mut Simulation<W>`; the three highest-volume
//! event kinds (timer ticks, flow completions, device-op completions) can
//! instead be scheduled as plain-data [`FastEvent`]s that never touch the
//! allocator and dispatch through a single installed function pointer.
//!
//! Storage is a generation-tagged slab of event slots indexed by an
//! index-based 4-ary min-heap:
//!
//! * scheduling writes one slot (reusing a free one when available) and
//!   pushes a `(time, seq, slot, gen)` key into the heap — no hashing;
//! * cancellation bumps the slot's generation and frees it immediately
//!   (O(1)); the stale heap key is discarded when it surfaces at the top;
//! * popping checks the key's generation against the slot's — a mismatch
//!   means the event was cancelled, so the key is skipped.
//!
//! Beside the heap sits one *re-armable* fast event
//! ([`Simulation::rearm_fast`]), for a poll that is moved far more often
//! than it fires (the network driver's delivery poll). Re-arming
//! overwrites it in place: no slot, no heap push, no stale key left
//! behind. It takes its sequence number from the same counter at the same
//! call, so it fires exactly where a `cancel` of the old event plus a
//! `schedule_fast` of the new one would have put it; `step` and
//! `run_until` fire whichever of it and the heap top ranks first, and it
//! counts in [`Simulation::events_pending`] and
//! [`Simulation::events_executed`] like any event.
//!
//! Determinism: events are ordered by `(time, sequence-number)`. The
//! sequence number is assigned at scheduling time, so two events scheduled
//! for the same instant fire in the order they were scheduled, on every run.

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// The handle is a slab slot index plus the generation the slot had when the
/// event was scheduled; once the event fires or is cancelled the generation
/// advances and the handle goes permanently stale, so cancelling a fired or
/// cancelled event is a cheap, safe no-op.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

type EventFn<W> = Box<dyn FnOnce(&mut Simulation<W>)>;

/// A plain-data event that schedules and fires without heap allocation.
///
/// The simulation core does not interpret the payloads; the embedding layer
/// installs one dispatcher with [`Simulation::set_fast_handler`] and gives
/// the words whatever meaning it needs. The variants mirror the three event
/// kinds that dominate every scenario's event volume.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastEvent {
    /// A timer tick: `kind` selects the tick family, `a`/`b` carry payload
    /// words (an object id and a generation, typically).
    Timer {
        /// Dispatcher-defined tick family.
        kind: u32,
        /// First payload word.
        a: u64,
        /// Second payload word.
        b: u64,
    },
    /// A network flow completion / poll point is due.
    FlowDue {
        /// Dispatcher-defined token identifying the poll domain.
        token: u64,
    },
    /// A device or swap operation completed.
    DeviceOp {
        /// Dispatcher-defined request identifier.
        req: u64,
    },
}

/// What a live event slot holds.
enum Payload<W> {
    /// General case: a boxed one-shot closure.
    Closure(EventFn<W>),
    /// Allocation-free plain-data event, routed to the installed handler.
    Fast(FastEvent),
    /// Free slot; the value is the next free slot index (`u32::MAX` ends
    /// the list).
    Vacant(u32),
}

struct Slot<W> {
    gen: u32,
    payload: Payload<W>,
}

const NO_SLOT: u32 = u32::MAX;

/// Heap key: total order `(time, seq)`; `slot`/`gen` locate the payload and
/// detect cancellation.
#[derive(Clone, Copy)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl HeapKey {
    #[inline]
    fn rank(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Index-based 4-ary min-heap of [`HeapKey`]s. Flatter than a binary heap
/// (half the levels), so pops touch fewer cache lines, and pushes — the
/// common operation in a DES, where most events fire near the clock — do
/// fewer comparisons per level than a pairing of binary-heap levels.
struct MinHeap {
    keys: Vec<HeapKey>,
}

impl MinHeap {
    const ARITY: usize = 4;

    fn new() -> Self {
        MinHeap { keys: Vec::new() }
    }

    #[inline]
    fn peek(&self) -> Option<&HeapKey> {
        self.keys.first()
    }

    fn push(&mut self, key: HeapKey) {
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1);
    }

    fn pop(&mut self) -> Option<HeapKey> {
        let n = self.keys.len();
        if n == 0 {
            return None;
        }
        self.keys.swap(0, n - 1);
        let top = self.keys.pop();
        if !self.keys.is_empty() {
            // The displaced key came from the bottom, so it almost always
            // belongs near the bottom again: walk the hole down choosing the
            // best child without comparing against the key at each level,
            // then sift the key up from where the hole lands. Saves one
            // comparison per level on the common path (the same strategy the
            // standard library's BinaryHeap uses).
            self.sift_down_to_bottom(0);
        }
        top
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        let rank = key.rank();
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.keys[parent].rank() <= rank {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Move the hole at `i` all the way to a leaf along the min-child path,
    /// then place `keys[i]`'s value by sifting up from the leaf.
    #[inline]
    fn sift_down_to_bottom(&mut self, mut i: usize) {
        let n = self.keys.len();
        let key = self.keys[i];
        loop {
            let first_child = i * Self::ARITY + 1;
            if first_child >= n {
                break;
            }
            let last_child = (first_child + Self::ARITY).min(n);
            let mut best = first_child;
            let mut best_rank = self.keys[first_child].rank();
            for c in (first_child + 1)..last_child {
                let r = self.keys[c].rank();
                if r < best_rank {
                    best = c;
                    best_rank = r;
                }
            }
            self.keys[i] = self.keys[best];
            i = best;
        }
        self.keys[i] = key;
        self.sift_up(i);
    }
}

/// The re-armable fast event: its rank, the instant it was armed for, and
/// the event.
#[derive(Clone, Copy)]
struct Rearmed {
    time: SimTime,
    seq: u64,
    /// `time` before clamping to the clock, as [`Simulation::rearmed_at`]
    /// reports it.
    at: SimTime,
    ev: FastEvent,
}

/// A discrete-event simulation: world state plus virtual clock plus pending
/// events.
pub struct Simulation<W> {
    now: SimTime,
    state: W,
    heap: MinHeap,
    rearmed: Option<Rearmed>,
    slots: Vec<Slot<W>>,
    free_head: u32,
    /// Count of scheduled-and-not-yet-fired-or-cancelled events, the
    /// re-armable one included. Stale heap keys are excluded, so this never
    /// under-counts or underflows.
    live: usize,
    next_seq: u64,
    executed: u64,
    fast_handler: Option<fn(&mut Simulation<W>, FastEvent)>,
}

impl<W> Simulation<W> {
    /// Create a simulation at t = 0 around an initial world state.
    pub fn new(state: W) -> Self {
        Simulation {
            now: SimTime::ZERO,
            state,
            heap: MinHeap::new(),
            rearmed: None,
            slots: Vec::new(),
            free_head: NO_SLOT,
            live: 0,
            next_seq: 0,
            executed: 0,
            fast_handler: None,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world state.
    #[inline]
    pub fn state(&self) -> &W {
        &self.state
    }

    /// Exclusive access to the world state.
    #[inline]
    pub fn state_mut(&mut self) -> &mut W {
        &mut self.state
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending. Cancelled and fired events are
    /// excluded exactly.
    pub fn events_pending(&self) -> usize {
        self.live
    }

    /// Install the dispatcher for [`FastEvent`]s. The embedding layer calls
    /// this once at world construction; scheduling a fast event without a
    /// handler installed panics when the event fires.
    pub fn set_fast_handler(&mut self, handler: fn(&mut Simulation<W>, FastEvent)) {
        self.fast_handler = Some(handler);
    }

    /// Allocate a slot for `payload` and push its heap key. Returns the id.
    fn insert(&mut self, at: SimTime, payload: Payload<W>) -> EventId {
        let time = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if self.free_head != NO_SLOT {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            match s.payload {
                Payload::Vacant(next) => self.free_head = next,
                _ => unreachable!("free list points at an occupied slot"),
            }
            s.payload = payload;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("event slab exceeded u32 slots");
            self.slots.push(Slot { gen: 0, payload });
            slot
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(HeapKey {
            time,
            seq,
            slot,
            gen,
        });
        self.live += 1;
        EventId { slot, gen }
    }

    /// Free `slot`, returning its payload and invalidating outstanding ids.
    fn release(&mut self, slot: u32) -> Payload<W> {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        let payload = std::mem::replace(&mut s.payload, Payload::Vacant(self.free_head));
        self.free_head = slot;
        payload
    }

    /// Schedule `f` to fire at absolute time `at`. Scheduling in the past
    /// fires the event "now" (it is clamped to the current time), which can
    /// happen legitimately when a rate computation rounds down.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        self.insert(at, Payload::Closure(Box::new(f)))
    }

    /// Schedule `f` to fire after `delay`.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventId
    where
        F: FnOnce(&mut Simulation<W>) + 'static,
    {
        self.insert(self.now + delay, Payload::Closure(Box::new(f)))
    }

    /// Schedule a plain-data [`FastEvent`] at absolute time `at` — no heap
    /// allocation on this path. Requires a handler installed via
    /// [`Simulation::set_fast_handler`] before the event fires.
    pub fn schedule_fast(&mut self, at: SimTime, ev: FastEvent) -> EventId {
        self.insert(at, Payload::Fast(ev))
    }

    /// Schedule a plain-data [`FastEvent`] after `delay`.
    pub fn schedule_fast_in(&mut self, delay: SimDuration, ev: FastEvent) -> EventId {
        self.insert(self.now + delay, Payload::Fast(ev))
    }

    /// Arm the re-armable fast event at `at`, replacing it if it is
    /// already pending. Fires, ranks and counts exactly as `cancel` of the
    /// replaced event followed by `schedule_fast(at, ev)` would, without
    /// touching the heap.
    pub fn rearm_fast(&mut self, at: SimTime, ev: FastEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.rearmed.is_none() {
            self.live += 1;
        }
        self.rearmed = Some(Rearmed {
            time: at.max(self.now),
            seq,
            at,
            ev,
        });
    }

    /// The instant the re-armable event is pending for, as passed to
    /// [`Simulation::rearm_fast`]; `None` once it has fired.
    pub fn rearmed_at(&self) -> Option<SimTime> {
        self.rearmed.map(|r| r.at)
    }

    /// Cancel a pending event. Cancelling an already-fired or already-
    /// cancelled event is a no-op and returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.gen == id.gen && !matches!(s.payload, Payload::Vacant(_)) => {
                self.release(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Execute a single event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        let top = self.live_top();
        if let Some(r) = self.rearmed {
            if top.is_none_or(|k| (r.time, r.seq) < k.rank()) {
                self.rearmed = None;
                self.fire_fast(r.time, r.ev);
                return true;
            }
        }
        let Some(key) = top else {
            return false;
        };
        self.heap.pop();
        match self.release(key.slot) {
            Payload::Closure(f) => {
                self.advance(key.time);
                f(self);
            }
            Payload::Fast(ev) => self.fire_fast(key.time, ev),
            Payload::Vacant(_) => unreachable!("live heap key pointed at a vacant slot"),
        }
        true
    }

    /// Move the clock to the firing event's `time` and count it executed.
    #[inline]
    fn advance(&mut self, time: SimTime) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.executed += 1;
        self.live -= 1;
    }

    /// Fire a fast event at `time` through the installed handler.
    #[inline]
    fn fire_fast(&mut self, time: SimTime, ev: FastEvent) {
        self.advance(time);
        let handler = self
            .fast_handler
            .expect("FastEvent fired with no handler installed");
        handler(self, ev);
    }

    /// Run until the queue is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// The heap's earliest live key, pruning stale (cancelled) keys off the
    /// top along the way.
    #[inline]
    fn live_top(&mut self) -> Option<HeapKey> {
        while let Some(&key) = self.heap.peek() {
            if self.slots[key.slot as usize].gen == key.gen {
                return Some(key);
            }
            // Cancelled: the slot was released (and possibly reused) after
            // this key was pushed.
            self.heap.pop();
        }
        None
    }

    /// Earliest pending event time, the re-armable event included.
    fn next_live_time(&mut self) -> Option<SimTime> {
        let heap = self.live_top().map(|k| k.time);
        match (heap, self.rearmed.map(|r| r.time)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Run every event scheduled at or before `deadline`, then advance the
    /// clock to `deadline` (it never moves backwards). Events scheduled
    /// after `deadline` stay queued for the next call.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.next_live_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => {
                    self.now = self.now.max(deadline);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_secs(3), |s| s.state_mut().push(3));
        sim.schedule_at(SimTime::from_secs(1), |s| s.state_mut().push(1));
        sim.schedule_at(SimTime::from_secs(2), |s| s.state_mut().push(2));
        sim.run();
        assert_eq!(sim.state(), &[1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sim.schedule_at(t, move |s| s.state_mut().push(i));
        }
        sim.run();
        assert_eq!(sim.state(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulation::new(0u64);
        sim.schedule_at(SimTime::from_secs(1), |s| {
            *s.state_mut() += 1;
            s.schedule_in(SimDuration::from_secs(1), |s| {
                *s.state_mut() += 10;
            });
        });
        sim.run();
        assert_eq!(*sim.state(), 11);
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn cancellation() {
        let mut sim = Simulation::new(0u64);
        let id = sim.schedule_at(SimTime::from_secs(1), |s| *s.state_mut() += 1);
        sim.schedule_at(SimTime::from_secs(2), |s| *s.state_mut() += 100);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel is a no-op");
        sim.run();
        assert_eq!(*sim.state(), 100);
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim = Simulation::new(());
        assert!(!sim.cancel(EventId { slot: 999, gen: 0 }));
    }

    #[test]
    fn cancel_fired_id_keeps_pending_count_correct() {
        // Regression: the seed implementation recorded any cancelled seq in
        // a set and subtracted the set's size from the queue length, so
        // cancelling an id that had already fired corrupted (and could
        // underflow) events_pending() forever.
        let mut sim = Simulation::new(0u64);
        let id = sim.schedule_at(SimTime::from_secs(1), |s| *s.state_mut() += 1);
        sim.run();
        assert_eq!(sim.events_pending(), 0);
        assert!(!sim.cancel(id), "cancelling a fired event reports false");
        assert_eq!(sim.events_pending(), 0);
        sim.schedule_at(SimTime::from_secs(2), |_| {});
        assert_eq!(sim.events_pending(), 1);
        assert!(!sim.cancel(id), "the stale id can never cancel a new event");
        assert_eq!(sim.events_pending(), 1);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_ids() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let a = sim.schedule_at(SimTime::from_secs(1), |s| s.state_mut().push(1));
        assert!(sim.cancel(a));
        // Reuses slot 0 with a bumped generation.
        let _b = sim.schedule_at(SimTime::from_secs(1), |s| s.state_mut().push(2));
        assert!(
            !sim.cancel(a),
            "old id must not cancel the slot's new tenant"
        );
        sim.run();
        assert_eq!(sim.state(), &[2]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        for t in [1u64, 2, 3, 4, 5] {
            sim.schedule_at(SimTime::from_secs(t), move |s| s.state_mut().push(t));
        }
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.state(), &[1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.state(), &[1, 2, 3, 4, 5]);
        // Clock advances to the deadline even with no events there.
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let mut sim = Simulation::new(0u64);
        let id = sim.schedule_at(SimTime::from_secs(1), |s| *s.state_mut() += 1);
        sim.schedule_at(SimTime::from_secs(5), |s| *s.state_mut() += 10);
        sim.cancel(id);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*sim.state(), 0);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.run();
        assert_eq!(*sim.state(), 10);
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.schedule_at(SimTime::from_secs(5), |s| {
            s.schedule_at(SimTime::from_secs(1), |s| {
                let t = s.now().as_secs();
                s.state_mut().push(t);
            });
        });
        sim.run();
        assert_eq!(sim.state(), &[5], "past event fired at current time");
    }

    #[test]
    fn events_pending_excludes_cancelled() {
        let mut sim = Simulation::new(());
        let a = sim.schedule_at(SimTime::from_secs(1), |_| {});
        let _b = sim.schedule_at(SimTime::from_secs(2), |_| {});
        assert_eq!(sim.events_pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.events_pending(), 1);
    }

    #[test]
    fn fast_events_dispatch_through_installed_handler() {
        fn dispatch(sim: &mut Simulation<Vec<FastEvent>>, ev: FastEvent) {
            sim.state_mut().push(ev);
        }
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(dispatch);
        sim.schedule_fast(SimTime::from_secs(2), FastEvent::DeviceOp { req: 9 });
        sim.schedule_fast(
            SimTime::from_secs(1),
            FastEvent::Timer {
                kind: 3,
                a: 1,
                b: 2,
            },
        );
        sim.schedule_fast_in(SimDuration::from_secs(3), FastEvent::FlowDue { token: 7 });
        sim.run();
        assert_eq!(
            sim.state(),
            &[
                FastEvent::Timer {
                    kind: 3,
                    a: 1,
                    b: 2
                },
                FastEvent::DeviceOp { req: 9 },
                FastEvent::FlowDue { token: 7 },
            ]
        );
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn fast_events_cancel_like_closures() {
        fn dispatch(sim: &mut Simulation<u64>, _ev: FastEvent) {
            *sim.state_mut() += 1;
        }
        let mut sim = Simulation::new(0u64);
        sim.set_fast_handler(dispatch);
        let id = sim.schedule_fast(SimTime::from_secs(1), FastEvent::FlowDue { token: 0 });
        sim.schedule_fast(SimTime::from_secs(2), FastEvent::FlowDue { token: 1 });
        assert!(sim.cancel(id));
        assert_eq!(sim.events_pending(), 1);
        sim.run();
        assert_eq!(*sim.state(), 1);
    }

    #[test]
    fn mixed_fast_and_boxed_preserve_scheduling_order() {
        fn dispatch(sim: &mut Simulation<Vec<u32>>, ev: FastEvent) {
            if let FastEvent::Timer { kind, .. } = ev {
                sim.state_mut().push(kind);
            }
        }
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(dispatch);
        let t = SimTime::from_secs(1);
        sim.schedule_fast(
            t,
            FastEvent::Timer {
                kind: 0,
                a: 0,
                b: 0,
            },
        );
        sim.schedule_at(t, |s| s.state_mut().push(1));
        sim.schedule_fast(
            t,
            FastEvent::Timer {
                kind: 2,
                a: 0,
                b: 0,
            },
        );
        sim.schedule_at(t, |s| s.state_mut().push(3));
        sim.run();
        assert_eq!(sim.state(), &[0, 1, 2, 3]);
    }

    #[test]
    fn heavy_schedule_cancel_interleave_stays_consistent() {
        let mut sim = Simulation::new(0u64);
        let mut ids = Vec::new();
        for i in 0..1000u64 {
            ids.push(sim.schedule_at(SimTime::from_millis(i % 97), |s| *s.state_mut() += 1));
        }
        for id in ids.iter().step_by(2) {
            assert!(sim.cancel(*id));
        }
        assert_eq!(sim.events_pending(), 500);
        sim.run();
        assert_eq!(*sim.state(), 500);
        assert_eq!(sim.events_pending(), 0);
    }

    /// Records `(label, now)` for every fast event: timers carry the label
    /// in `a`, the re-armable poll in `token`.
    fn record(sim: &mut Simulation<Vec<(u64, u64)>>, ev: FastEvent) {
        let label = match ev {
            FastEvent::Timer { a, .. } => a,
            FastEvent::FlowDue { token } => token,
            FastEvent::DeviceOp { req } => req,
        };
        let now = sim.now().as_secs();
        sim.state_mut().push((label, now));
    }

    fn timer(label: u64) -> FastEvent {
        FastEvent::Timer {
            kind: 0,
            a: label,
            b: 0,
        }
    }

    #[test]
    fn rearmed_event_ties_rank_by_scheduling_order() {
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(record);
        let t = SimTime::from_secs(1);
        sim.schedule_fast(t, timer(0));
        sim.rearm_fast(t, FastEvent::FlowDue { token: 1 });
        sim.schedule_fast(t, timer(2));
        sim.schedule_at(t, |s| s.state_mut().push((3, 1)));
        sim.run();
        assert_eq!(sim.state(), &[(0, 1), (1, 1), (2, 1), (3, 1)]);

        // Re-arming at the same instant takes a fresh sequence number, so
        // the poll now ranks after the heap events scheduled before it.
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(record);
        sim.rearm_fast(t, FastEvent::FlowDue { token: 0 });
        sim.schedule_fast(t, timer(1));
        sim.rearm_fast(t, FastEvent::FlowDue { token: 2 });
        sim.schedule_fast(t, timer(3));
        assert_eq!(sim.events_pending(), 3);
        sim.run();
        assert_eq!(sim.state(), &[(1, 1), (2, 1), (3, 1)]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn rearming_earlier_and_later_fires_once() {
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(record);
        sim.schedule_fast(SimTime::from_secs(5), timer(5));
        sim.rearm_fast(SimTime::from_secs(7), FastEvent::FlowDue { token: 7 });
        sim.rearm_fast(SimTime::from_secs(2), FastEvent::FlowDue { token: 2 });
        assert_eq!(sim.rearmed_at(), Some(SimTime::from_secs(2)));
        assert_eq!(sim.events_pending(), 2);
        assert!(sim.step());
        assert_eq!(sim.state(), &[(2, 2)]);
        assert_eq!(sim.rearmed_at(), None);
        assert_eq!(sim.events_pending(), 1);

        // Later: past the heap event, which now fires first.
        sim.rearm_fast(SimTime::from_secs(3), FastEvent::FlowDue { token: 3 });
        sim.rearm_fast(SimTime::from_secs(8), FastEvent::FlowDue { token: 8 });
        sim.run();
        assert_eq!(sim.state(), &[(2, 2), (5, 5), (8, 8)]);
        assert_eq!(sim.events_executed(), 3);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn rearming_in_the_past_fires_now_and_reports_the_armed_instant() {
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(record);
        sim.schedule_at(SimTime::from_secs(5), |s| {
            s.rearm_fast(SimTime::from_secs(1), FastEvent::FlowDue { token: 1 });
            assert_eq!(s.rearmed_at(), Some(SimTime::from_secs(1)));
        });
        sim.schedule_fast(SimTime::from_secs(6), timer(6));
        sim.run();
        assert_eq!(sim.state(), &[(1, 5), (6, 6)]);
    }

    #[test]
    fn run_until_holding_only_the_rearmed_event() {
        let mut sim = Simulation::new(Vec::new());
        sim.set_fast_handler(record);
        sim.rearm_fast(SimTime::from_secs(3), FastEvent::FlowDue { token: 3 });
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.state().is_empty());
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.events_pending(), 1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.state(), &[(3, 3)]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(sim.events_executed(), 1);
        assert_eq!(sim.rearmed_at(), None);
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.now(), SimTime::from_secs(9));
        assert!(!sim.step(), "nothing left to fire");
    }
}
