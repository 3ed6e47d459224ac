//! A generic future-event queue for discrete-event simulation.
//!
//! [`EventQueue`] is the future-event list of the asynchronous engines in
//! `churn-event` (message deliveries, churn ticks, crash restarts,
//! anti-entropy pulls). There is no cancellation; RAES retries are resolved
//! through the engine's pending-repair ledger instead.
//!
//! # Layout
//!
//! Time is cut into epochs of a fixed width, `1 / EPOCHS_PER_UNIT` of a
//! time unit, so an event's epoch is `floor(time · EPOCHS_PER_UNIT)`.
//!
//! * **Future epochs.** An event for an epoch after the open one is
//!   appended, unsorted, to that epoch's bucket: a list of chunks of
//!   `CHUNK` entries each, in a map keyed by epoch.
//! * **The open epoch.** When the queue runs dry it opens the earliest
//!   bucket: it moves the chunks into one buffer, sorts it once,
//!   earliest event last, and pops from the back. Pops then read memory in
//!   order instead of sifting a heap of every in-flight message.
//! * **Late arrivals.** An event scheduled at or before the open epoch,
//!   after it opened, goes into a small binary heap. A pop takes the earlier
//!   of the two heads.
//!
//! | operation | cost |
//! |---|---|
//! | `schedule`, future epoch | O(log F) into the map, F = future epochs held; a new chunk every `CHUNK` events |
//! | `schedule`, open epoch | O(log L) heap push, L = late events |
//! | `pop` / `peek_time` | O(1) from the open epoch or O(log L) from the heap; opening an epoch of k events moves and sorts it once, O(k log k) |
//! | `len` / `is_empty` / `now` | O(1) |
//!
//! Memory: a flood keeps a hundred or more buckets growing at once. Grown
//! by doubling, their reallocations fragment the allocator's heap (about
//! 3 MB more peak RSS on perfbench's `flood-async`); fixed-size chunks are
//! reused as freed. The open epoch's buffer is kept and refilled; drained
//! chunks are freed, not pooled, since a pool keeps the largest epoch's
//! memory alive for the rest of the run.
//!
//! # Ordering contract
//!
//! The total order is ascending `(time, sequence)` where `sequence` is a
//! monotone per-queue counter stamped at [`schedule`](EventQueue::schedule)
//! time: earliest time first, FIFO among equal times. No two events compare
//! equal, so the pop order is unique — the determinism suites pin it bit for
//! bit across implementations. The epoch is a monotone function of time, so
//! every event in an earlier epoch is earlier in this order, and cutting
//! time into epochs does not change it. `-0.0` lands in epoch 0 and ties
//! with `0.0`, falling through to the sequence.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Epochs per unit of simulated time. A power of two, so `time ·
/// EPOCHS_PER_UNIT` is exact below the top of the `f64` range.
const EPOCHS_PER_UNIT: f64 = 16.0;

/// Entries per chunk of a future epoch's bucket. Every chunk has the same
/// capacity, so a freed chunk fits the next one allocated.
const CHUNK: usize = 64;

/// One future epoch's events in schedule order, in chunks of `CHUNK`.
type Bucket<E> = Vec<Vec<Entry<E>>>;

/// Appends `entry` to the bucket's last chunk, starting a chunk when it is
/// full.
fn append<E>(bucket: &mut Bucket<E>, entry: Entry<E>) {
    match bucket.last_mut() {
        Some(chunk) if chunk.len() < CHUNK => chunk.push(entry),
        _ => {
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.push(entry);
            bucket.push(chunk);
        }
    }
}

/// The epoch of `time`: `floor(time · EPOCHS_PER_UNIT)`, saturating at
/// `u64::MAX` (so `+∞` has an epoch). Monotone in `time`; `-0.0` maps to 0.
fn epoch_of(time: f64) -> u64 {
    (time * EPOCHS_PER_UNIT) as u64
}

/// One scheduled event: the ordering key and its payload.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    sequence: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// `(time, sequence)` as integers. Times are `-0.0` or non-negative
    /// (`schedule` refuses NaN and the past, and the clock starts at 0), so
    /// after `+ 0.0` turns `-0.0` into `0.0` the bit pattern orders like the
    /// value, `+∞` included.
    fn key(&self) -> (u64, u64) {
        ((self.time + 0.0).to_bits(), self.sequence)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed, so that `BinaryHeap` (a max-heap) pops the smallest
    /// `(time, sequence)` first, and an ascending sort puts it last.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A future-event list ordered by event time.
///
/// Events are scheduled with [`schedule`](Self::schedule) and retrieved in
/// non-decreasing time order with [`pop`](Self::pop).
///
/// # Example
///
/// ```
/// use churn_stochastic::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(3.0, "death of v1");
/// queue.schedule(1.0, "arrival of v2");
/// queue.schedule(1.0, "death of v0");
/// assert_eq!(queue.peek_time(), Some(1.0));
/// let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!["arrival of v2", "death of v0", "death of v1"]);
/// assert_eq!(queue.now(), 3.0);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Buckets of the epochs after the open one, keyed by epoch. Every
    /// bucket holds at least one event.
    buckets: BTreeMap<u64, Bucket<E>>,
    /// The rest of the open epoch, sorted so that the earliest event is
    /// last. Refilled, not reallocated, as each epoch opens.
    open: Vec<Entry<E>>,
    /// The most recently opened epoch (`None` before the first).
    open_epoch: Option<u64>,
    /// Events scheduled at or before the open epoch after it opened.
    late: BinaryHeap<Entry<E>>,
    len: usize,
    next_sequence: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time 0.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            open: Vec::new(),
            open_epoch: None,
            late: BinaryHeap::new(),
            len: 0,
            next_sequence: 0,
            now: 0.0,
        }
    }

    /// The time of the most recently popped event (0 before the first pop).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of scheduled (not yet popped) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or lies in the past (before [`Self::now`]).
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} before the current time {}",
            self.now
        );
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.len += 1;
        let entry = Entry {
            time,
            sequence,
            payload,
        };
        let epoch = epoch_of(time);
        if self.open_epoch.is_some_and(|open| epoch <= open) {
            self.late.push(entry);
        } else {
            append(self.buckets.entry(epoch).or_default(), entry);
        }
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.open_next_if_drained();
        let entry = if self.late_is_first() {
            self.late.pop()
        } else {
            self.open.pop()
        }?;
        self.len -= 1;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Time of the earliest event without popping it. Takes `&mut self`
    /// because it may open the next epoch.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<f64> {
        self.open_next_if_drained();
        let head = if self.late_is_first() {
            self.late.peek()
        } else {
            self.open.last()
        };
        head.map(|entry| entry.time)
    }

    /// Opens the earliest future epoch once the open epoch and the late
    /// heap are both drained. Every bucket lies after the open epoch, so
    /// while either of those holds an event, the earliest event is one of
    /// their two heads.
    fn open_next_if_drained(&mut self) {
        if !self.open.is_empty() || !self.late.is_empty() {
            return;
        }
        let Some((epoch, chunks)) = self.buckets.pop_first() else {
            return;
        };
        self.open.reserve(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            self.open.extend(chunk);
        }
        self.open.sort_unstable();
        self.open_epoch = Some(epoch);
    }

    /// Whether the late heap's top, not the open epoch's last entry, is the
    /// earlier of the two heads.
    fn late_is_first(&self) -> bool {
        match (self.open.last(), self.late.peek()) {
            (Some(open), Some(late)) => late > open,
            (open, _) => open.is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_returns_events_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 5);
        q.schedule(1.0, 1);
        q.schedule(3.0, 3);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn signed_zero_times_tie_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(0.0, "plus");
        q.schedule(-0.0, "minus");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["plus", "minus"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(2.5, ());
        q.schedule(4.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.5);
        q.pop();
        assert_eq!(q.now(), 4.0);
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn scheduling_nan_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn peek_time_reports_the_earliest_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(2.0, "b");
        q.schedule(1.0, "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.len(), 2, "peeking pops nothing");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn many_tied_out_of_order_events_pop_in_time_then_schedule_order() {
        let mut q = EventQueue::new();
        // 4096 events over 97 distinct times: heavy ties, scheduled out of
        // order.
        for i in 0..4096u64 {
            let time = ((i * 2_654_435_761) % 97) as f64 / 7.0;
            q.schedule(time, i);
        }
        let mut popped = Vec::with_capacity(4096);
        let mut last = (f64::NEG_INFINITY, 0u64);
        while let Some((t, payload)) = q.pop() {
            assert!(
                t > last.0 || (t == last.0 && payload > last.1),
                "ascending (time, schedule order)"
            );
            popped.push(payload);
            last = (t, payload);
        }
        assert_eq!(popped.len(), 4096, "every event surfaces exactly once");
        popped.sort_unstable();
        assert!(popped.iter().copied().eq(0..4096));
    }

    #[test]
    fn far_future_event_surfaces_after_near_one() {
        let mut q = EventQueue::new();
        q.schedule(0.25, "near");
        q.schedule(1.0e9, "far");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.peek_time(), Some(1.0e9));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert!(q.pop().is_none());
    }
}
