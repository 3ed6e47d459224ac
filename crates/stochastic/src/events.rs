//! A generic future-event queue for discrete-event simulation.
//!
//! [`EventQueue`] is the future-event list of the asynchronous engines in
//! `churn-event` (message deliveries, churn ticks, crash restarts,
//! anti-entropy pulls): a binary heap over `(time, sequence, payload)`
//! entries with O(log n) schedule and pop. There is no cancellation; RAES
//! retries are resolved through the engine's pending-repair ledger instead.
//!
//! # Ordering contract
//!
//! The total order is ascending `(time, sequence)` where `sequence` is a
//! monotone per-queue counter stamped at [`schedule`](EventQueue::schedule)
//! time: earliest time first, FIFO among equal times. No two events compare
//! equal, so the pop order is unique — the determinism suites pin it bit for
//! bit across implementations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: the ordering key and its payload.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    sequence: u64,
    payload: E,
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
    /// `(time, sequence)` first. Times are never NaN (`schedule` refuses
    /// them), and `-0.0` ties with `0.0` and falls through to the sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.sequence)
            .partial_cmp(&(self.time, self.sequence))
            .expect("event times are never NaN")
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
    heap: BinaryHeap<Entry<E>>,
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
            heap: BinaryHeap::new(),
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
        self.heap.len()
    }

    /// Returns `true` when no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        self.heap.push(Entry {
            time,
            sequence,
            payload,
        });
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Time of the earliest event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|entry| entry.time)
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
