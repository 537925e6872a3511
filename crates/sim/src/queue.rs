//! The deterministic event queue.
//!
//! [`EventQueue`] orders [`ScheduledEvent`]s by `(time, sequence)`. The
//! sequence number is assigned at push time, so two events scheduled for the
//! same instant pop in insertion order regardless of payload — this is the
//! determinism anchor of the whole simulator.
//!
//! Two backends implement that contract behind one API:
//!
//! * [`QueueBackend::Wheel`] (the default) — a hierarchical timing wheel:
//!   [`LEVELS`] cascading levels of [`SLOTS`] slots each, with level-0 slots
//!   one nanosecond wide (the [`Time`] resolution). A level-0 slot therefore
//!   holds exactly one timestamp, so appending in push order keeps it
//!   seq-sorted for free; higher levels cascade down as the cursor reaches
//!   their window, and events beyond the wheel horizon (2^48 ns ≈ 78 h) wait
//!   in an overflow heap. Push and pop are O(1) amortized for the
//!   near-constant link-latency offsets that dominate the simulator's event
//!   mix.
//! * [`QueueBackend::Heap`] — the original `BinaryHeap` implementation, kept
//!   as the reference the tests compare the wheel against. Both backends pop
//!   byte-identical `(time, seq, event)` sequences; `tests`, the
//!   differential proptest in `tests/` and the harness's `backend_identity`
//!   suite pin that.
//!
//! The wheel keeps the earliest run of events eagerly staged in a `current`
//! buffer (non-empty whenever the queue is non-empty), which is what makes
//! `peek(&self)` O(1) and lets [`EventQueue::pop_run`] hand a whole
//! same-timestamp batch to the run loop as one allocation swap.

use crate::time::Time;
use clove_telemetry::Histogram;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// An event plus the instant it fires at.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: Time,
    /// Monotone per-queue insertion counter; breaks same-instant ties.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

// Ordering is inverted (earliest first) because BinaryHeap is a max-heap.
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller (time, seq) is "greater" so it pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical timing wheel (the fast default).
    #[default]
    Wheel,
    /// The original binary heap — the test oracle.
    Heap,
}

/// Event-mix statistics the queue gathers as it runs: how deep the pending
/// set gets and how far ahead of "now" events are scheduled. Both feed wheel
/// bucket sizing (recorded in `BENCH_baseline.json`) so the level geometry is
/// tuned from measured data rather than guesses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueProfile {
    /// High-water mark of pending events.
    pub peak_pending: u64,
    /// Push-to-pop delay histogram over `at − last_popped_time` in ns: how
    /// far into the future of the queue's head each event was scheduled —
    /// exactly the offset distribution that decides which wheel level absorbs
    /// the event. Stored as the shared log-linear streaming histogram; the
    /// log2 view consumed by `BENCH_baseline.json` comes out of
    /// [`QueueProfile::trimmed_hist`] with bit-identical counts to the old
    /// `64 - delay.leading_zeros()` bucketing.
    pub delay_hist: Histogram,
}

impl QueueProfile {
    /// Fold another profile into this one (cross-cell aggregation).
    pub fn merge(&mut self, other: &QueueProfile) {
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        self.delay_hist.merge(&other.delay_hist);
    }

    /// Log2 aggregation of the delay histogram (bucket 0 = zero-delay,
    /// bucket `k ≥ 1` = delays in `[2^(k-1), 2^k)` ns) with trailing empty
    /// buckets dropped.
    pub fn trimmed_hist(&self) -> Vec<u64> {
        let full = self.delay_hist.log2_counts();
        let last = full.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        full[..last].to_vec()
    }

    /// Total events profiled.
    pub fn total(&self) -> u64 {
        self.delay_hist.count()
    }
}

/// Slot-index bits per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per level (256).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `L` slots are `2^(8L)` ns wide, so six levels cover
/// a 2^48 ns ≈ 78 hour horizon before the overflow heap takes over.
const LEVELS: usize = 6;
/// 64-bit occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;

/// The hierarchical timing wheel. See the module docs for the geometry; the
/// structural invariants are:
///
/// 1. `current` is sorted by `(at, seq)` and is non-empty whenever the queue
///    is non-empty (events are staged eagerly at pop/refill time).
/// 2. When `current` is non-empty, `cursor == current.back().at`: the cursor
///    is pinned to the latest staged instant, and every event in the slots
///    or overflow fires strictly later than it.
/// 3. A slot vector is always seq-ascending: pushes append in seq order, and
///    a cascade drains its source slot in order into empty lower slots.
/// 4. The cursor never rewinds while events are pending, so slot indices
///    computed against it stay valid until drained.
#[derive(Debug)]
struct Wheel<E> {
    /// The staged head of the queue, in pop order.
    current: VecDeque<ScheduledEvent<E>>,
    /// Scan anchor: the instant of `current.back()` (see invariant 2).
    cursor: u64,
    /// `LEVELS × SLOTS` slot vectors, level-major.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Far-future events (further than the wheel horizon from the cursor).
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Events in `slots` + `overflow` (excludes `current`).
    pending: usize,
    /// Advisory capacity so `capacity()`/`reserve()` keep their contract.
    cap: usize,
}

impl<E> Wheel<E> {
    fn new(cap: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        Wheel { current: VecDeque::with_capacity(cap.min(1024)), cursor: 0, slots, occ: [[0; WORDS]; LEVELS], overflow: BinaryHeap::new(), pending: 0, cap }
    }

    fn len(&self) -> usize {
        self.current.len() + self.pending
    }

    /// Schedule an event that fires strictly after the cursor.
    fn place_future(&mut self, ev: ScheduledEvent<E>) {
        let t = ev.at.0;
        let diff = t ^ self.cursor;
        debug_assert!(t > self.cursor);
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(ev);
        } else {
            let idx = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.slots[level * SLOTS + idx].push(ev);
            self.occ[level][idx / 64] |= 1u64 << (idx % 64);
        }
        self.pending += 1;
    }

    fn push(&mut self, ev: ScheduledEvent<E>) {
        if self.current.is_empty() {
            // Empty queue (invariant 1 ⇒ nothing pending): re-anchor.
            debug_assert_eq!(self.pending, 0);
            self.cursor = ev.at.0;
            self.current.push_back(ev);
        } else if ev.at.0 >= self.cursor {
            if ev.at.0 == self.cursor {
                // Same instant as the staged tail: the fresh seq is the
                // largest, so this is a plain O(1) append.
                self.current.push_back(ev);
            } else {
                self.place_future(ev);
            }
        } else {
            // Earlier than the staged tail — insert into `current` keeping
            // (at, seq) order. The fresh seq is larger than every staged
            // one, so the slot is right after the last event with at ≤ t.
            let pos = self.current.partition_point(|e| e.at <= ev.at);
            self.current.insert(pos, ev);
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.current.pop_front()?;
        if self.current.is_empty() {
            self.refill();
        }
        Some(ev)
    }

    /// First occupied slot at/after the cursor, if any: level 0 scans from
    /// the cursor's own slot (a post-cascade anchor can land exactly on an
    /// event), higher levels from the next slot over (the cursor's own
    /// higher-level slots are provably empty — an event there would share
    /// the slot's index bits with the cursor and so live at a lower level).
    fn find_slot(&self) -> Option<(usize, usize)> {
        let pos0 = (self.cursor & (SLOTS as u64 - 1)) as usize;
        if let Some(i) = scan_level(&self.occ[0], pos0) {
            return Some((0, i));
        }
        for level in 1..LEVELS {
            let pos = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if pos + 1 < SLOTS {
                if let Some(i) = scan_level(&self.occ[level], pos + 1) {
                    return Some((level, i));
                }
            }
        }
        None
    }

    /// Restage `current` with the earliest pending run. Called only when
    /// `current` is empty; restores invariants 1–2 unless the queue is done.
    fn refill(&mut self) {
        debug_assert!(self.current.is_empty());
        if self.pending == 0 {
            return;
        }
        loop {
            let Some((level, idx)) = self.find_slot() else {
                // Only the overflow holds events.
                self.take_overflow_run();
                return;
            };
            if level == 0 {
                let t = (self.cursor & !(SLOTS as u64 - 1)) | idx as u64;
                // A level-0 slot is one timestamp; the overflow may hold
                // the same instant (pushed when the cursor was far behind),
                // or an earlier one the slots can't see.
                match self.overflow.peek().map(|o| o.at.0.cmp(&t)) {
                    Some(Ordering::Less) => self.take_overflow_run(),
                    Some(Ordering::Equal) => self.take_slot_merged_with_overflow(idx, t),
                    _ => self.take_level0_slot(idx, t),
                }
                return;
            }
            // A higher-level window is next — but take the overflow run
            // first if it fires before that window even opens. (Checking
            // before cascading is what keeps the cursor monotone: a cascade
            // advances it to the window base.)
            let shift = SLOT_BITS * level as u32;
            let base = (self.cursor & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((idx as u64) << shift);
            if self.overflow.peek().is_some_and(|o| o.at.0 < base) {
                self.take_overflow_run();
                return;
            }
            self.cascade(level, idx, base);
        }
    }

    /// Redistribute one higher-level slot across the levels below it,
    /// anchoring the cursor at the slot's window base. Every target slot is
    /// empty beforehand (its events would have mapped to this source slot),
    /// so draining in seq order preserves invariant 3.
    fn cascade(&mut self, level: usize, idx: usize, base: u64) {
        self.cursor = base;
        let mut v = mem::take(&mut self.slots[level * SLOTS + idx]);
        self.occ[level][idx / 64] &= !(1u64 << (idx % 64));
        self.pending -= v.len();
        for ev in v.drain(..) {
            if ev.at.0 == base {
                // The window base itself: level 0, the cursor's own slot —
                // which the inclusive level-0 scan picks up next.
                let i = (base & (SLOTS as u64 - 1)) as usize;
                self.slots[i].push(ev);
                self.occ[0][i / 64] |= 1u64 << (i % 64);
                self.pending += 1;
            } else {
                self.place_future(ev);
            }
        }
        // Hand the emptied vector's allocation back to the slot.
        self.slots[level * SLOTS + idx] = v;
    }

    fn take_level0_slot(&mut self, idx: usize, t: u64) {
        let v = mem::take(&mut self.slots[idx]);
        self.occ[0][idx / 64] &= !(1u64 << (idx % 64));
        self.pending -= v.len();
        self.cursor = t;
        // Refill only runs with `current` empty, so the slot's run (already
        // in seq order) can take over wholesale: trading allocations is O(1)
        // where an `extend` would copy every event — and every event in the
        // simulation funnels through this path once.
        debug_assert!(self.current.is_empty());
        let prev = mem::replace(&mut self.current, VecDeque::from(v));
        // An empty VecDeque converts back allocation-preserving in O(1).
        self.slots[idx] = Vec::from(prev);
    }

    fn take_overflow_run(&mut self) {
        let Some(first) = self.overflow.pop() else { return };
        let t = first.at;
        self.cursor = t.0;
        self.pending -= 1;
        self.current.push_back(first);
        while self.overflow.peek().is_some_and(|e| e.at == t) {
            if let Some(ev) = self.overflow.pop() {
                self.pending -= 1;
                self.current.push_back(ev);
            }
        }
    }

    /// The rare equal-instant split: part of the run sits in a level-0 slot
    /// (pushed near the cursor), part in the overflow (pushed far ahead of
    /// an older cursor). Merge the two seq-sorted streams.
    fn take_slot_merged_with_overflow(&mut self, idx: usize, t: u64) {
        let mut v = mem::take(&mut self.slots[idx]);
        self.occ[0][idx / 64] &= !(1u64 << (idx % 64));
        self.pending -= v.len();
        self.cursor = t;
        let mut from_overflow = Vec::new();
        while self.overflow.peek().is_some_and(|e| e.at.0 == t) {
            if let Some(ev) = self.overflow.pop() {
                self.pending -= 1;
                from_overflow.push(ev);
            }
        }
        let mut a = v.drain(..).peekable();
        let mut b = from_overflow.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.seq < y.seq {
                        self.current.extend(a.next());
                    } else {
                        self.current.extend(b.next());
                    }
                }
                (Some(_), None) => self.current.extend(a.next()),
                (None, Some(_)) => self.current.extend(b.next()),
                (None, None) => break,
            }
        }
        drop(a);
        self.slots[idx] = v;
    }

    fn clear(&mut self) {
        self.current.clear();
        for (level, bitmap) in self.occ.iter_mut().enumerate() {
            for (w, word) in bitmap.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    self.slots[level * SLOTS + idx].clear();
                    bits &= bits - 1;
                }
                *word = 0;
            }
        }
        self.overflow.clear();
        self.pending = 0;
        self.cursor = 0;
    }
}

/// First set bit at/after `from` in a 256-bit occupancy bitmap.
fn scan_level(occ: &[u64; WORDS], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = occ[w] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        word = occ[w];
    }
}

// One `Core` exists per `EventQueue` (one per simulation), so the size gap
// between the inline wheel and the heap pointer is irrelevant — while boxing
// the wheel would put a pointer chase on every push/pop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Core<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<ScheduledEvent<E>>),
}

/// A future-event set with deterministic ordering.
#[derive(Debug)]
pub struct EventQueue<E> {
    core: Core<E>,
    next_seq: u64,
    pushed: u64,
    /// Instant of the most recent pop — the "now" each push's scheduling
    /// delay is measured against for the profile histogram.
    last_pop: u64,
    profile: QueueProfile,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue on the default (wheel) backend.
    pub fn new() -> Self {
        Self::with_capacity_and_backend(0, QueueBackend::Wheel)
    }

    /// An empty queue with pre-allocated capacity on the default backend.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_backend(cap, QueueBackend::Wheel)
    }

    /// An empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self::with_capacity_and_backend(0, backend)
    }

    /// An empty queue with pre-allocated capacity on an explicit backend.
    pub fn with_capacity_and_backend(cap: usize, backend: QueueBackend) -> Self {
        let core = match backend {
            QueueBackend::Wheel => Core::Wheel(Wheel::new(cap)),
            QueueBackend::Heap => Core::Heap(BinaryHeap::with_capacity(cap)),
        };
        EventQueue { core, next_seq: 0, pushed: 0, last_pop: 0, profile: QueueProfile::default() }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let delay = at.0.saturating_sub(self.last_pop);
        self.profile.delay_hist.record(delay);
        let ev = ScheduledEvent { at, seq, event };
        match &mut self.core {
            Core::Wheel(w) => w.push(ev),
            Core::Heap(h) => h.push(ev),
        }
        let len = self.len() as u64;
        if len > self.profile.peak_pending {
            self.profile.peak_pending = len;
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = match &mut self.core {
            Core::Wheel(w) => w.pop(),
            Core::Heap(h) => h.pop(),
        };
        if let Some(ev) = &ev {
            self.last_pop = ev.at.0;
        }
        ev
    }

    /// Peek at the earliest event without removing it.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        match &self.core {
            Core::Wheel(w) => w.current.front(),
            Core::Heap(h) => h.peek(),
        }
    }

    /// The instant the earliest event fires at, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.peek().map(|e| e.at)
    }

    /// Move the entire earliest run — every pending event sharing the
    /// earliest timestamp, in seq order — into `out` (which is cleared
    /// first), returning that timestamp. On the wheel this is usually one
    /// allocation swap: the staged `current` buffer trades places with
    /// `out`, so a run loop that alternates `pop_run`/drain never copies
    /// events or allocates in steady state.
    #[inline]
    pub fn pop_run(&mut self, out: &mut VecDeque<ScheduledEvent<E>>) -> Option<Time> {
        out.clear();
        let t = match &mut self.core {
            Core::Wheel(w) => {
                let t = w.current.front()?.at;
                if w.current.back().is_some_and(|e| e.at == t) {
                    // The whole staged buffer is one run: swap it out.
                    mem::swap(&mut w.current, out);
                    w.refill();
                } else {
                    // `current` spans several instants (same-instant pushes
                    // landed ahead of a later staged run): peel the head run
                    // in one bulk drain (`current` is sorted by time).
                    let n = w.current.partition_point(|e| e.at <= t);
                    out.extend(w.current.drain(..n));
                }
                t
            }
            Core::Heap(h) => {
                let first = h.pop()?;
                let t = first.at;
                out.push_back(first);
                while h.peek().is_some_and(|e| e.at == t) {
                    if let Some(ev) = h.pop() {
                        out.push_back(ev);
                    }
                }
                t
            }
        };
        self.last_pop = t.0;
        Some(t)
    }

    /// Return the unprocessed tail of a run taken by [`pop_run`] to the
    /// queue, preserving original `(time, seq)` identities. The events in
    /// `rest` (drained by this call) must all share one instant that is
    /// `≤` every pending event — true whenever the run loop stops mid-batch
    /// and handlers only scheduled at or after "now".
    ///
    /// [`pop_run`]: EventQueue::pop_run
    #[inline]
    pub fn unpop_run(&mut self, rest: &mut VecDeque<ScheduledEvent<E>>) {
        if rest.is_empty() {
            return;
        }
        match &mut self.core {
            Core::Wheel(w) => {
                if w.current.is_empty() {
                    // Queue fully empty (invariant 1): re-anchor on the run.
                    debug_assert_eq!(w.pending, 0);
                    if let Some(back) = rest.back() {
                        w.cursor = back.at.0;
                    }
                }
                debug_assert!(w.current.front().map(|f| (f.at, f.seq)) > rest.back().map(|b| (b.at, b.seq)) || w.current.is_empty());
                while let Some(ev) = rest.pop_back() {
                    w.current.push_front(ev);
                }
            }
            Core::Heap(h) => {
                for ev in rest.drain(..) {
                    h.push(ev);
                }
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.core {
            Core::Wheel(w) => w.len(),
            Core::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed over the queue's whole lifetime (for run
    /// statistics). This counter deliberately survives [`clear`]: a cleared
    /// queue is the *same* queue being reused, and run accounting wants the
    /// grand total, not a per-epoch count. Callers that need per-epoch
    /// deltas should snapshot `total_pushed()` before the epoch.
    ///
    /// [`clear`]: EventQueue::clear
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// The event-mix profile accumulated over the queue's lifetime.
    pub fn profile(&self) -> &QueueProfile {
        &self.profile
    }

    /// Number of events the queue can hold without reallocating. For the
    /// wheel backend this is advisory (slot storage grows per slot); it is
    /// kept monotone under [`reserve`] and stable across [`clear`] so
    /// pre-sizing callers can verify their hint took.
    ///
    /// [`reserve`]: EventQueue::reserve
    /// [`clear`]: EventQueue::clear
    pub fn capacity(&self) -> usize {
        match &self.core {
            Core::Wheel(w) => w.cap.max(w.current.capacity()),
            Core::Heap(h) => h.capacity(),
        }
    }

    /// Reserve capacity for at least `additional` more events beyond the
    /// current pending count. Used to pre-size the queue from a scenario's
    /// scale so the steady state never reallocates mid-run.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.core {
            Core::Wheel(w) => w.cap = w.cap.max(w.len() + additional),
            Core::Heap(h) => h.reserve(additional),
        }
    }

    /// Drop all pending events, keeping allocations for reuse.
    ///
    /// Reuse semantics — both counters survive on purpose:
    ///
    /// * `next_seq` keeps counting, so events pushed after a `clear` still
    ///   tie-break deterministically against each other (and a post-clear
    ///   push can never collide with a stale `(time, seq)` pair from before
    ///   the clear).
    /// * [`total_pushed`] keeps counting lifetime pushes; see its docs.
    ///
    /// The backing allocations (heap, staged buffer, slot vectors) are
    /// retained, so clear-and-refill cycles (e.g. chunked horizon runs) do
    /// not reallocate.
    ///
    /// [`total_pushed`]: EventQueue::total_pushed
    pub fn clear(&mut self) {
        match &mut self.core {
            Core::Wheel(w) => w.clear(),
            Core::Heap(h) => h.clear(),
        }
        self.last_pop = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(30), "c");
        q.push(Time::from_micros(10), "a");
        q.push(Time::from_micros(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_micros(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), 1);
        q.push(Time::from_micros(5), 0);
        assert_eq!(q.pop().unwrap().event, 0);
        q.push(Time::from_micros(7), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 1);
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn clear_and_reuse_keeps_counters_and_capacity() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        q.push(Time::from_micros(1), 0);
        q.push(Time::from_micros(1), 1);
        q.clear();
        // Counters survive the clear...
        assert_eq!(q.total_pushed(), 2);
        assert!(q.is_empty());
        // ...and so does the allocation.
        assert_eq!(q.capacity(), cap);
        // seq keeps counting: post-clear same-instant pushes still pop in
        // insertion order.
        q.push(Time::from_micros(1), 10);
        q.push(Time::from_micros(1), 11);
        assert_eq!(q.pop().unwrap().event, 10);
        assert_eq!(q.pop().unwrap().event, 11);
        assert_eq!(q.total_pushed(), 4);
    }

    #[test]
    fn reserve_grows_capacity() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.reserve(1000);
        assert!(q.capacity() >= 1000);
    }

    #[test]
    fn zero_time_events_fire() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 42);
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, Time::ZERO);
        assert_eq!(ev.event, 42);
    }

    /// Every (backend, workload) pair below must agree with this reference.
    type Popped = Vec<(u64, u64, u64)>;

    fn drain(q: &mut EventQueue<u64>) -> Popped {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.at.0, e.seq, e.event));
        }
        out
    }

    fn both_backends(pushes: &[u64]) -> (Popped, Popped) {
        let mut wheel = EventQueue::with_backend(QueueBackend::Wheel);
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        for (i, &t) in pushes.iter().enumerate() {
            wheel.push(Time::from_nanos(t), i as u64);
            heap.push(Time::from_nanos(t), i as u64);
        }
        (drain(&mut wheel), drain(&mut heap))
    }

    #[test]
    fn wheel_matches_heap_across_level_boundaries() {
        // Times straddling every wheel level, including duplicates and the
        // overflow horizon (≥ 2^48 ns from the anchor).
        let times = [0u64, 1, 255, 256, 257, 255, 65_535, 65_536, 1 << 24, (1 << 24) + 1, 1 << 40, (1 << 48) + 7, (1 << 48) + 7, 1 << 50, 3, 0];
        let (w, h) = both_backends(&times);
        assert_eq!(w, h);
        assert_eq!(w.len(), times.len());
    }

    #[test]
    fn wheel_overflow_and_slot_merge_same_instant() {
        // An event lands in the overflow (pushed > 2^48 ns ahead of the
        // cursor); later the cursor catches up and a second event for the
        // *same* instant lands in a level-0 slot. The refill must merge the
        // two sources in pure seq order.
        let t = (1u64 << 49) + 100;
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.push(Time::ZERO, 0u64); // anchors the cursor at 0
        q.push(Time::from_nanos(t), 1); // 2^49 ns ahead → overflow
        q.push(Time::from_nanos(t - 50), 2); // also overflow
        assert_eq!(q.pop().unwrap().event, 0);
        // The refill staged event 2 from the overflow; cursor = t - 50.
        assert_eq!(q.peek_time(), Some(Time::from_nanos(t - 50)));
        q.push(Time::from_nanos(t), 3); // 50 ns ahead now → level-0 slot
        assert_eq!(q.pop().unwrap().event, 2);
        // Instant `t` is split: event 1 in the overflow, event 3 in a slot.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec![1, 3], "same-instant events split across overflow and slots must merge in seq order");
    }

    #[test]
    fn pop_run_returns_whole_timestamp_batch() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 0u64);
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(20), 2);
        q.push(Time::from_nanos(10), 3);
        let mut run = VecDeque::new();
        assert_eq!(q.pop_run(&mut run), Some(Time::from_nanos(10)));
        assert_eq!(run.iter().map(|e| e.event).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_run(&mut run), Some(Time::from_nanos(20)));
        assert_eq!(run.iter().map(|e| e.event).collect::<Vec<_>>(), vec![2]);
        assert_eq!(q.pop_run(&mut run), None);
        assert!(run.is_empty());
    }

    #[test]
    fn unpop_run_restores_order_before_same_instant_pushes() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            q.push(Time::from_nanos(10), 0u64);
            q.push(Time::from_nanos(10), 1);
            q.push(Time::from_nanos(10), 2);
            q.push(Time::from_nanos(50), 9);
            let mut run = VecDeque::new();
            q.pop_run(&mut run);
            // "Process" event 0, which schedules a same-instant follow-up,
            // then stop and put the unprocessed tail (1, 2) back.
            let _ = run.pop_front();
            q.push(Time::from_nanos(10), 7);
            q.unpop_run(&mut run);
            assert!(run.is_empty());
            assert_eq!(q.len(), 4);
            let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            assert_eq!(order, vec![1, 2, 7, 9], "restored tail must precede same-instant pushes ({backend:?})");
        }
    }

    #[test]
    fn pop_run_peels_partial_head_after_past_insert() {
        let mut q = EventQueue::with_backend(QueueBackend::Wheel);
        q.push(Time::from_nanos(10), 0u64);
        q.push(Time::from_nanos(20), 1);
        let mut run = VecDeque::new();
        q.pop_run(&mut run); // takes the run at 10; stages the run at 20
        q.push(Time::from_nanos(10), 2); // same-instant push lands ahead of the staged 20
        q.push(Time::from_nanos(15), 3);
        let mut order = Vec::new();
        while let Some(t) = q.pop_run(&mut run) {
            order.push((t.0, run.iter().map(|e| e.event).collect::<Vec<_>>()));
        }
        assert_eq!(order, vec![(10, vec![2]), (15, vec![3]), (20, vec![1])]);
    }

    #[test]
    fn profile_tracks_peak_and_delay_buckets() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u64); // delay 0 → bucket 0
        q.push(Time::from_nanos(1), 1); // delay 1 → bucket 1
        q.push(Time::from_nanos(1000), 2); // delay 1000 → bucket 10
        assert_eq!(q.profile().peak_pending, 3);
        let log2 = q.profile().delay_hist.log2_counts();
        assert_eq!(log2[0], 1);
        assert_eq!(log2[1], 1);
        assert_eq!(log2[10], 1);
        assert_eq!(q.profile().total(), 3);
        assert_eq!(q.profile().trimmed_hist().len(), 11);
        let mut hist = Histogram::new();
        for _ in 0..5 {
            hist.record(0);
        }
        let other = QueueProfile { peak_pending: 1, delay_hist: hist };
        let mut merged = q.profile().clone();
        merged.merge(&other);
        assert_eq!(merged.peak_pending, 3);
        assert_eq!(merged.delay_hist.log2_counts()[0], 6);
    }

    #[test]
    fn default_backend_is_the_wheel() {
        assert_eq!(QueueBackend::default(), QueueBackend::Wheel);
    }

    #[test]
    fn randomish_workload_matches_heap_exactly() {
        // A deterministic LCG drives interleaved push/pop/clear on both
        // backends; the pop streams must be identical. (The proptest in
        // clove-sim/tests covers the randomized version of this.)
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut wheel = EventQueue::with_backend(QueueBackend::Wheel);
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut wheel_log = Vec::new();
        let mut heap_log = Vec::new();
        for i in 0..10_000u64 {
            let r = next();
            match r % 10 {
                0..=6 => {
                    // Mostly near-future pushes, some far, occasional dupes.
                    let t = match r % 3 {
                        0 => (i * 13) % 4096,
                        1 => next() % (1 << 20),
                        _ => next() % (1 << 45),
                    };
                    wheel.push(Time::from_nanos(t), i);
                    heap.push(Time::from_nanos(t), i);
                }
                7 | 8 => {
                    let a = wheel.pop().map(|e| (e.at, e.seq, e.event));
                    let b = heap.pop().map(|e| (e.at, e.seq, e.event));
                    assert_eq!(a, b, "step {i}");
                    wheel_log.push(a);
                    heap_log.push(b);
                }
                _ => {
                    if r % 97 == 0 {
                        wheel.clear();
                        heap.clear();
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len(), "step {i}");
        }
        let a = drain(&mut wheel);
        let b = drain(&mut heap);
        assert_eq!(a, b);
        assert_eq!(wheel.total_pushed(), heap.total_pushed());
    }
}
