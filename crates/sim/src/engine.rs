//! The discrete-event engine: a monotone clock plus a stable priority queue.
//!
//! The queue is an *indexed* 4-ary min-heap: every cancellable event
//! carries a slot in a side slab that tracks its current heap position,
//! so [`Engine::cancel`] removes the entry from the heap immediately
//! (O(log n)) instead of leaving a tombstone to be skipped at pop time.
//! Timer-heavy workloads (per-request timeouts, retry/backoff storms,
//! fabric wake-ups that are re-armed on every flow event) therefore keep
//! the heap at its true live size — no cancelled-id set to grow, no
//! reaping debt at drain time. Pop order is the same `(at, seq)` total
//! order as before: keys are unique, so any correct heap yields the
//! identical deterministic schedule.

use crate::time::{SimDuration, SimTime};

/// Handle to an event scheduled with [`Engine::schedule_cancellable`].
///
/// Pass it back to [`Engine::cancel`] to withdraw the event before it
/// fires. Handles are cheap value types tied to one engine; a handle from
/// another engine has undefined (but memory-safe) cancel semantics.
///
/// Internally the handle packs a slab slot with a per-slot generation, so
/// a stale handle whose slot has been reused by a later timer can never
/// cancel the newcomer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(u64);

impl TimerHandle {
    fn new(slot: u32, generation: u32) -> Self {
        TimerHandle((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A scheduled event; ordered by time, then by insertion sequence so that
/// simultaneous events fire in FIFO order (determinism). `slot` indexes
/// the cancellation slab, or [`NO_SLOT`] for plain events.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

/// Slab slot marker for events scheduled without a handle.
const NO_SLOT: u32 = u32::MAX;
/// Position marker for a slab slot whose event is no longer in the heap.
const FREE: u32 = u32::MAX;
/// Heap arity. Four children per node halves the sift-down depth against
/// a binary heap and keeps each child scan inside one cache line.
const ARITY: usize = 4;

/// One cancellation-slab entry: where its event currently sits in the
/// heap (or [`FREE`]), plus the generation guarding against handle reuse.
#[derive(Clone, Copy)]
struct Slot {
    generation: u32,
    pos: u32,
}

/// A deterministic discrete-event engine over user-defined event values.
///
/// The engine owns the clock and the pending-event queue. Models drive their
/// own loop with [`Engine::next`].
///
/// ```
/// use kooza_sim::{Engine, SimDuration};
///
/// let mut eng = Engine::new();
/// eng.schedule(SimDuration::from_secs(1), "tick");
/// let (t, ev) = eng.next().unwrap();
/// assert_eq!(ev, "tick");
/// assert_eq!(t, eng.now());
/// ```
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    /// Indexed 4-ary min-heap ordered by `(at, seq)`.
    heap: Vec<Scheduled<E>>,
    /// Cancellation slab: slot → current heap position + generation.
    slots: Vec<Slot>,
    /// Slots available for reuse, LIFO.
    free_slots: Vec<u32>,
    processed: u64,
    pending_high_water: usize,
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: Vec::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            processed: 0,
            pending_high_water: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending. Cancelled timers are removed from
    /// the heap immediately, so this is the true live count.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The most events that were ever pending at once — how deep the
    /// event queue got. Survives [`Engine::clear`].
    pub fn pending_high_water(&self) -> usize {
        self.pending_high_water
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — the simulated past is
    /// immutable.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.insert(at, NO_SLOT, event);
    }

    /// Schedules `event` to fire `delay` after the current time and
    /// returns a handle the caller can use to [`Engine::cancel`] it —
    /// the primitive timeout timers are built on.
    pub fn schedule_cancellable(&mut self, delay: SimDuration, event: E) -> TimerHandle {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.slots.len();
                assert!(slot < NO_SLOT as usize, "cancellable-timer slab exhausted");
                self.slots.push(Slot { generation: 0, pos: FREE });
                slot as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.insert(self.now + delay, slot, event);
        TimerHandle::new(slot, generation)
    }

    /// Cancels an event scheduled with [`Engine::schedule_cancellable`].
    ///
    /// Returns `true` if the event was still pending and is now removed
    /// from the heap (O(log n)); `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(&Slot { generation, pos }) = self.slots.get(handle.slot() as usize) else {
            return false;
        };
        if generation != handle.generation() || pos == FREE {
            return false;
        }
        self.release_slot(handle.slot());
        self.remove_at(pos as usize);
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty (simulation end).
    ///
    /// Deliberately named like `Iterator::next` — the engine is consumed
    /// the same way — but it is not an `Iterator` because handlers need
    /// `&mut Engine` back between events.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let Scheduled { at, seq: _, slot, event } = self.heap.pop().expect("non-empty above");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        if slot != NO_SLOT {
            self.release_slot(slot);
        }
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    /// Peeks at the timestamp of the next event without popping it. O(1):
    /// the heap root is always live.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|s| s.at)
    }

    /// Discards all pending events (the clock keeps its value). Live
    /// timer slots are retired with a generation bump, so handles issued
    /// before the clear can never cancel events scheduled after it.
    pub fn clear(&mut self) {
        self.heap.clear();
        for (slot, s) in self.slots.iter_mut().enumerate() {
            if s.pos != FREE {
                s.pos = FREE;
                s.generation = s.generation.wrapping_add(1);
                self.free_slots.push(slot as u32);
            }
        }
    }

    /// Pushes one entry and restores the heap order.
    fn insert(&mut self, at: SimTime, slot: u32, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past (now={}, at={})",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, slot, event });
        self.sift_up(self.heap.len() - 1);
        self.pending_high_water = self.pending_high_water.max(self.heap.len());
    }

    /// Retires a slab slot: marks it free and bumps the generation so any
    /// outstanding handle to it goes stale.
    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.pos = FREE;
        s.generation = s.generation.wrapping_add(1);
        self.free_slots.push(slot);
    }

    /// Removes the entry at heap position `pos` (its slot must already be
    /// released) and restores the heap order.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos < self.heap.len() {
            // The swapped-in tail element can be out of order in either
            // direction; at most one of these moves it.
            self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    fn earlier(&self, a: usize, b: usize) -> bool {
        let (x, y) = (&self.heap[a], &self.heap[b]);
        (x.at, x.seq) < (y.at, y.seq)
    }

    /// Re-records the slab position of the entry at heap index `i`.
    fn record_pos(&mut self, i: usize) {
        let slot = self.heap[i].slot;
        if slot != NO_SLOT {
            self.slots[slot as usize].pos = i as u32;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.earlier(i, parent) {
                self.heap.swap(i, parent);
                self.record_pos(i);
                i = parent;
            } else {
                break;
            }
        }
        self.record_pos(i);
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = ARITY * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let mut min = first;
            let end = (first + ARITY).min(self.heap.len());
            for child in first + 1..end {
                if self.earlier(child, min) {
                    min = child;
                }
            }
            if self.earlier(min, i) {
                self.heap.swap(i, min);
                self.record_pos(i);
                i = min;
            } else {
                break;
            }
        }
        self.record_pos(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_nanos(30), 'c');
        eng.schedule_at(SimTime::from_nanos(10), 'a');
        eng.schedule_at(SimTime::from_nanos(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut eng = Engine::new();
        for i in 0..100 {
            eng.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| eng.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut eng = Engine::new();
        eng.schedule(SimDuration::from_nanos(5), ());
        eng.schedule(SimDuration::from_nanos(3), ());
        let (t1, _) = eng.next().unwrap();
        assert_eq!(t1, SimTime::from_nanos(3));
        assert_eq!(eng.now(), t1);
        let (t2, _) = eng.next().unwrap();
        assert_eq!(t2, SimTime::from_nanos(5));
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_panics() {
        let mut eng = Engine::new();
        eng.schedule(SimDuration::from_nanos(10), ());
        let _ = eng.next();
        eng.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn pending_high_water_tracks_queue_depth() {
        let mut eng = Engine::new();
        assert_eq!(eng.pending_high_water(), 0);
        eng.schedule(SimDuration::from_nanos(1), 'a');
        eng.schedule(SimDuration::from_nanos(2), 'b');
        eng.schedule(SimDuration::from_nanos(3), 'c');
        assert_eq!(eng.pending_high_water(), 3);
        let _ = eng.next();
        let _ = eng.next();
        // Draining does not lower the mark; a shallower refill keeps it.
        eng.schedule(SimDuration::from_nanos(4), 'd');
        assert_eq!(eng.pending(), 2);
        assert_eq!(eng.pending_high_water(), 3);
        // A deeper queue raises it, and clear() keeps the history.
        eng.schedule(SimDuration::from_nanos(5), 'e');
        eng.schedule(SimDuration::from_nanos(6), 'f');
        eng.schedule(SimDuration::from_nanos(7), 'g');
        assert_eq!(eng.pending_high_water(), 5);
        eng.clear();
        assert_eq!(eng.pending_high_water(), 5);
    }

    #[test]
    fn peek_and_clear() {
        let mut eng = Engine::new();
        assert_eq!(eng.peek_time(), None);
        eng.schedule(SimDuration::from_nanos(7), ());
        assert_eq!(eng.peek_time(), Some(SimTime::from_nanos(7)));
        eng.clear();
        assert!(eng.next().is_none());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut eng = Engine::new();
        let h = eng.schedule_cancellable(SimDuration::from_nanos(10), "timeout");
        eng.schedule(SimDuration::from_nanos(20), "work");
        assert_eq!(eng.pending(), 2);
        assert!(eng.cancel(h));
        assert_eq!(eng.pending(), 1);
        // Second cancel is a no-op.
        assert!(!eng.cancel(h));
        let (t, ev) = eng.next().unwrap();
        assert_eq!(ev, "work");
        assert_eq!(t, SimTime::from_nanos(20));
        assert!(eng.next().is_none());
        // Cancelled timers do not count as processed.
        assert_eq!(eng.processed(), 1);
    }

    #[test]
    fn uncancelled_timer_fires_and_handle_expires() {
        let mut eng = Engine::new();
        let h = eng.schedule_cancellable(SimDuration::from_nanos(5), 'x');
        let (_, ev) = eng.next().unwrap();
        assert_eq!(ev, 'x');
        // The timer already fired: cancelling its handle is a no-op.
        assert!(!eng.cancel(h));
    }

    #[test]
    fn peek_time_skips_cancelled_timers() {
        let mut eng = Engine::new();
        let h = eng.schedule_cancellable(SimDuration::from_nanos(3), 0);
        eng.schedule(SimDuration::from_nanos(9), 1);
        assert_eq!(eng.peek_time(), Some(SimTime::from_nanos(3)));
        eng.cancel(h);
        assert_eq!(eng.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn clear_forgets_cancellation_state() {
        let mut eng = Engine::new();
        let h = eng.schedule_cancellable(SimDuration::from_nanos(3), ());
        eng.cancel(h);
        eng.clear();
        assert_eq!(eng.pending(), 0);
        eng.schedule(SimDuration::from_nanos(1), ());
        assert_eq!(eng.pending(), 1);
        assert!(eng.next().is_some());
    }

    #[test]
    fn zero_delay_event_fires_at_now() {
        let mut eng = Engine::new();
        eng.schedule(SimDuration::from_nanos(4), "first");
        let _ = eng.next();
        eng.schedule(SimDuration::ZERO, "second");
        let (t, e) = eng.next().unwrap();
        assert_eq!(t, SimTime::from_nanos(4));
        assert_eq!(e, "second");
    }

    #[test]
    fn stale_handle_cannot_cancel_a_reused_slot() {
        let mut eng = Engine::new();
        let old = eng.schedule_cancellable(SimDuration::from_nanos(5), "old");
        assert!(eng.cancel(old));
        // The slot is reused by the next timer; the stale handle must not
        // reach it (generation mismatch).
        let new = eng.schedule_cancellable(SimDuration::from_nanos(7), "new");
        assert!(!eng.cancel(old));
        assert_eq!(eng.pending(), 1);
        assert!(eng.cancel(new));
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn handles_issued_before_clear_go_stale() {
        let mut eng = Engine::new();
        let h = eng.schedule_cancellable(SimDuration::from_nanos(3), 'a');
        eng.clear();
        // The cleared slot is reused; the pre-clear handle must not
        // cancel the newcomer.
        let h2 = eng.schedule_cancellable(SimDuration::from_nanos(4), 'b');
        assert!(!eng.cancel(h));
        assert_eq!(eng.pending(), 1);
        assert!(eng.cancel(h2));
    }

    #[test]
    fn cancel_mid_heap_preserves_pop_order() {
        let mut eng = Engine::new();
        let mut handles = Vec::new();
        for i in 0..64u64 {
            // Interleave times so cancellations hit interior heap nodes.
            handles.push(eng.schedule_cancellable(SimDuration::from_nanos(((i * 37) % 64) + 1), i));
        }
        for (i, h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                assert!(eng.cancel(*h));
            }
        }
        let mut popped = Vec::new();
        while let Some((t, ev)) = eng.next() {
            popped.push((t, ev));
        }
        let mut expected: Vec<(SimTime, u64)> = (0..64u64)
            .filter(|i| i % 3 != 0)
            .map(|i| (SimTime::from_nanos(((i * 37) % 64) + 1), i))
            .collect();
        // Same (at, seq) order the engine guarantees: seq here equals i.
        expected.sort_by_key(|&(t, i)| (t, i));
        assert_eq!(popped, expected);
    }

    /// Regression test for the cancelled-id bookkeeping audit: a
    /// schedule/cancel loop must not grow the heap or the slot slab — the
    /// old tombstone design kept every cancelled seq in a `HashSet` and
    /// in the heap until drained.
    #[test]
    fn heap_and_slab_stay_bounded_under_schedule_cancel_churn() {
        let mut eng = Engine::new();
        // A persistent anchor keeps the heap non-empty throughout.
        eng.schedule(SimDuration::from_secs(1_000_000), "anchor");
        for round in 0..100_000u64 {
            let h = eng.schedule_cancellable(SimDuration::from_nanos(round + 1), "timer");
            assert!(eng.cancel(h));
            assert_eq!(eng.pending(), 1, "tombstones piled up at round {round}");
        }
        assert_eq!(eng.heap.len(), 1);
        // The slab reuses the one freed slot instead of growing.
        assert!(eng.slots.len() <= 2, "slot slab grew to {}", eng.slots.len());
        // Overlapping timers grow the slab only to the live maximum.
        let hs: Vec<TimerHandle> =
            (0..16).map(|i| eng.schedule_cancellable(SimDuration::from_nanos(i + 1), "t")).collect();
        for h in hs {
            assert!(eng.cancel(h));
        }
        assert!(eng.slots.len() <= 17, "slot slab grew to {}", eng.slots.len());
        assert_eq!(eng.pending(), 1);
    }
}
