//! The event scheduler: a thin, instrumented wrapper over
//! [`churn_stochastic::EventQueue`].
//!
//! The queue itself provides the total event order — earliest timestamp
//! first, ties broken by a monotone schedule-time sequence number (FIFO), so
//! no two events ever compare equal. This wrapper adds what the simulation
//! core needs on top: the processed-event counter and an optional trace
//! recorder that the determinism suite uses to pin "same seed ⇒ identical
//! event trace".

use churn_stochastic::EventQueue;

use crate::trace::TraceBins;

/// One processed event in a recorded trace: enough to compare two runs
/// bit for bit without retaining payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Bit pattern of the event's timestamp (`f64::to_bits`), so the
    /// comparison is exact.
    pub time_bits: u64,
    /// Position of the event in processing order (0-based).
    pub index: u64,
    /// Process-defined event kind.
    pub kind: u16,
    /// Process-defined subject (usually a raw node id).
    pub subject: u64,
}

/// How [`Scheduler::record`] captures events.
#[derive(Debug)]
enum Capture {
    Off,
    /// Buffer every event verbatim (determinism suite).
    Buffer(Vec<TraceEvent>),
    /// Fold events into per-time-unit bins as they arrive (series
    /// pipeline; no full-trace buffering).
    Bins(TraceBins),
}

/// An instrumented future-event list with a total order.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    processed: u64,
    capture: Capture,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            processed: 0,
            capture: Capture::Off,
        }
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler with the clock at 0 and tracing off.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns full trace recording on (buffers every [`Self::record`] call).
    pub fn enable_trace(&mut self) {
        self.capture = Capture::Buffer(Vec::new());
    }

    /// Turns streaming binning on: every [`Self::record`] call folds into a
    /// [`TraceBins`] keyed on `alive_kind` / `initial_alive` instead of
    /// being buffered.
    pub fn enable_bins(&mut self, alive_kind: u16, initial_alive: f64) {
        self.capture = Capture::Bins(TraceBins::new(alive_kind, initial_alive));
    }

    /// Takes the recorded trace (empty unless full tracing was enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match std::mem::replace(&mut self.capture, Capture::Off) {
            Capture::Buffer(trace) => trace,
            other => {
                self.capture = other;
                Vec::new()
            }
        }
    }

    /// Takes the finalized bins (`None` unless binning was enabled).
    pub fn take_bins(&mut self) -> Option<TraceBins> {
        match std::mem::replace(&mut self.capture, Capture::Off) {
            Capture::Bins(mut bins) => {
                bins.finalize();
                Some(bins)
            }
            other => {
                self.capture = other;
                None
            }
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (0 before the first pop).
    #[must_use]
    pub fn now(&self) -> f64 {
        self.queue.now()
    }

    /// Events popped so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or lies before [`Self::now`].
    pub fn schedule_at(&mut self, time: f64, payload: E) {
        self.queue.schedule(time, payload);
    }

    /// Timestamp of the next event without popping it (`&mut self`: the
    /// queue may open its next epoch).
    #[must_use]
    pub fn peek_time(&mut self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Pops the earliest event, advancing the clock and the processed
    /// counter.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let popped = self.queue.pop();
        if popped.is_some() {
            self.processed += 1;
        }
        popped
    }

    /// Records the event being processed into the active capture (no-op
    /// with capture off). Call once per popped event, after [`Self::pop`].
    pub fn record(&mut self, kind: u16, subject: u64) {
        let (now, processed) = (self.queue.now(), self.processed);
        match &mut self.capture {
            Capture::Off => {}
            Capture::Buffer(trace) => trace.push(TraceEvent {
                time_bits: now.to_bits(),
                index: processed.saturating_sub(1),
                kind,
                subject,
            }),
            Capture::Bins(bins) => bins.push(now.to_bits(), kind, subject),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_events_pop_in_schedule_order() {
        let mut sched = Scheduler::new();
        for k in 0..10 {
            sched.schedule_at(1.0, k);
        }
        sched.schedule_at(0.5, 100);
        let order: Vec<i32> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(sched.processed(), 11);
    }

    #[test]
    fn trace_records_time_bits_and_order() {
        let mut sched = Scheduler::new();
        sched.enable_trace();
        sched.schedule_at(2.0, 'b');
        sched.schedule_at(1.0, 'a');
        while let Some((_, event)) = sched.pop() {
            sched.record(1, event as u64);
        }
        let trace = sched.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].subject, 'a' as u64);
        assert_eq!(trace[0].time_bits, 1.0f64.to_bits());
        assert_eq!(trace[1].index, 1);
    }
}
