//! Model-based property test: [`EventQueue`] against a straightforward
//! sorted-scan reference over arbitrary interleavings of schedule / peek /
//! pop — including same-timestamp ties (FIFO contract), events scheduled
//! into the epoch being drained, times on and just beside epoch boundaries,
//! long runs of empty epochs, the `-0.0`/`0.0` tie, and far-future timers
//! (`1.0e9`, `+∞`) parked behind everything else. The plain tests below pin
//! a large same-instant burst, `len` while events are split between the
//! queue's parts, and distant epochs scheduled into while the clock
//! moves towards them.

use churn_stochastic::EventQueue;
use proptest::prelude::*;

/// The queue's epoch width (1/16 of a time unit). Boundary times are its
/// multiples; a different width only makes them less pointed.
const EPOCH: f64 = 1.0 / 16.0;

/// One step of the interpreted operation sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + DELTAS[i]`; small quantized offsets force plenty
    /// of exact timestamp collisions and land in the epoch being drained,
    /// `37.0` skips hundreds of empty epochs, `200.0` and `300.0`
    /// thousands, so a new event can land between two waiting epochs; the
    /// far offsets park a timer behind everything else.
    Schedule(usize),
    /// Schedule on the `k`-th epoch boundary after `now`, moved by `nudge`
    /// ulps (`-1`, `0` or `+1`), clamped so it is never in the past.
    Boundary(u8, i8),
    /// Schedule at `-0.0` while the clock reads zero (else at `now`).
    NegativeZero,
    Peek,
    Pop,
}

const DELTAS: [f64; 11] = [
    0.0,
    0.0,
    0.01,
    0.5,
    0.5,
    1.25,
    37.0,
    200.0,
    300.0,
    1.0e9,
    f64::INFINITY,
];

/// Reference entry: the total order is (time, seq); `alive` tracks whether
/// the event is still queued.
#[derive(Debug, Clone)]
struct ModelEntry {
    time: f64,
    seq: u64,
    alive: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Uniform union; schedules are listed four times so runs trend
    // queue-filling.
    prop_oneof![
        (0usize..DELTAS.len()).prop_map(Op::Schedule),
        (0usize..DELTAS.len()).prop_map(Op::Schedule),
        (0u8..3, -1i8..2).prop_map(|(k, nudge)| Op::Boundary(k, nudge)),
        (0u8..3, -1i8..2).prop_map(|(k, nudge)| Op::Boundary(k, nudge)),
        Just(Op::NegativeZero),
        Just(Op::Peek),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// The time an operation schedules at, given the clock.
fn schedule_time(op: &Op, now: f64) -> Option<f64> {
    match *op {
        Op::Schedule(delta) => Some(now + DELTAS[delta]),
        Op::Boundary(k, nudge) => {
            let boundary = ((now / EPOCH).floor() + 1.0 + f64::from(k)) * EPOCH;
            let nudged = match nudge {
                -1 => boundary.next_down(),
                1 => boundary.next_up(),
                _ => boundary,
            };
            Some(nudged.max(now))
        }
        Op::NegativeZero => Some(if now == 0.0 { -0.0 } else { now }),
        Op::Peek | Op::Pop => None,
    }
}

/// The earliest live reference entry, as `(time, index)`.
fn earliest(model: &[ModelEntry]) -> Option<(f64, usize)> {
    model
        .iter()
        .enumerate()
        .filter(|(_, e)| e.alive)
        .min_by(|(_, a), (_, b)| {
            (a.time, a.seq)
                .partial_cmp(&(b.time, b.seq))
                .expect("no NaN")
        })
        .map(|(idx, e)| (e.time, idx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut now = 0.0f64;

        for op in ops {
            if let Some(time) = schedule_time(&op, now) {
                queue.schedule(time, model.len());
                model.push(ModelEntry { time, seq: model.len() as u64, alive: true });
            } else {
                let best = earliest(&model);
                let peeked = queue.peek_time();
                prop_assert_eq!(peeked.map(f64::to_bits), best.map(|(t, _)| t.to_bits()));
                if let Op::Pop = op {
                    let popped = queue.pop();
                    match best {
                        Some((time, idx)) => {
                            model[idx].alive = false;
                            now = time;
                            let (pop_time, payload) =
                                popped.expect("model has a live event, queue must too");
                            prop_assert_eq!(pop_time.to_bits(), time.to_bits());
                            prop_assert_eq!(payload, idx);
                            prop_assert_eq!(queue.now().to_bits(), time.to_bits());
                        }
                        None => prop_assert!(popped.is_none()),
                    }
                }
            }
            let live = model.iter().filter(|e| e.alive).count();
            prop_assert_eq!(queue.len(), live);
            prop_assert_eq!(queue.is_empty(), live == 0);
        }

        // Drain: the survivors must surface in exact (time, seq) order.
        let mut survivors: Vec<(f64, u64, usize)> = model
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(idx, e)| (e.time, e.seq, idx))
            .collect();
        survivors.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("no NaN"));
        for &(time, _, idx) in &survivors {
            let (pop_time, payload) = queue.pop().expect("survivor still queued");
            prop_assert_eq!(pop_time.to_bits(), time.to_bits());
            prop_assert_eq!(payload, idx);
        }
        prop_assert!(queue.pop().is_none());
        prop_assert!(queue.is_empty());
    }
}

/// The RAES wiring burst: tens of thousands of events at one instant pop in
/// schedule order, whether they wait in an unopened epoch, arrive in the
/// epoch being drained, or sit in a future epoch.
#[test]
fn same_instant_burst_pops_fifo() {
    const BURST: usize = 20_000;
    let mut queue = EventQueue::new();
    for i in 0..BURST {
        queue.schedule(0.0, i);
    }
    for i in 0..BURST {
        queue.schedule(3.0, 2 * BURST + i);
    }
    assert_eq!(queue.pop(), Some((0.0, 0)));
    // The same instant again, now that its epoch is open.
    for i in BURST..2 * BURST {
        queue.schedule(0.0, i);
    }
    for expected in 1..3 * BURST {
        let time = if expected < 2 * BURST { 0.0 } else { 3.0 };
        assert_eq!(queue.pop(), Some((time, expected)));
    }
    assert!(queue.is_empty());
}

/// `len` and `is_empty` count every event wherever it waits: in a future
/// epoch's bucket, in the epoch being drained, or among the late arrivals
/// to that epoch.
#[test]
fn len_counts_events_in_every_part_of_the_queue() {
    let mut queue = EventQueue::new();
    queue.schedule(0.0, "open a");
    queue.schedule(0.01, "open b");
    queue.schedule(2.0, "future");
    queue.schedule(1.0e9, "far");
    assert_eq!(queue.len(), 4);
    assert_eq!(queue.pop(), Some((0.0, "open a")));
    assert_eq!(queue.len(), 3);
    queue.schedule(0.005, "late");
    queue.schedule(0.0, "late at now");
    assert_eq!(queue.len(), 5);
    let mut order = Vec::new();
    while let Some((_, event)) = queue.pop() {
        order.push(event);
        assert_eq!(queue.len(), 5 - order.len());
        assert_eq!(queue.is_empty(), order.len() == 5);
    }
    assert_eq!(order, ["late at now", "late", "open b", "future", "far"]);
}

/// `peek_time` may open a later epoch while the clock is still earlier; an
/// event scheduled before that epoch afterwards still pops first.
#[test]
fn event_before_a_peeked_epoch_pops_first() {
    let mut queue = EventQueue::new();
    queue.schedule(0.25, "first");
    queue.schedule(5.0, "later");
    assert_eq!(queue.pop(), Some((0.25, "first")));
    assert_eq!(queue.peek_time(), Some(5.0));
    queue.schedule(1.0, "earlier");
    queue.schedule(5.0, "tie");
    queue.schedule(f64::INFINITY, "never");
    assert_eq!(queue.peek_time(), Some(1.0));
    let order: Vec<(f64, &str)> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(
        order,
        [
            (1.0, "earlier"),
            (5.0, "later"),
            (5.0, "tie"),
            (f64::INFINITY, "never")
        ]
    );
}

/// An epoch scheduled into in two visits, before and after the clock
/// has moved, pops as one epoch in `(time, sequence)` order.
#[test]
fn epoch_scheduled_in_two_visits_pops_in_order() {
    let mut queue = EventQueue::new();
    queue.schedule(300.01, "first visit, later");
    queue.schedule(300.0, "first visit, earlier");
    queue.schedule(100.0, "before");
    assert_eq!(queue.pop(), Some((100.0, "before")));
    queue.schedule(300.0, "second visit, tie");
    queue.schedule(300.005, "second visit, between");
    let order: Vec<(f64, &str)> = std::iter::from_fn(|| queue.pop()).collect();
    assert_eq!(
        order,
        [
            (300.0, "first visit, earlier"),
            (300.0, "second visit, tie"),
            (300.005, "second visit, between"),
            (300.01, "first visit, later"),
        ]
    );
}

/// A distant epoch opens while a later one already waits; an event
/// scheduled between the two pops between them, and the clock never runs
/// backwards.
#[test]
fn event_between_an_opened_epoch_and_a_waiting_one_pops_between() {
    let mut queue = EventQueue::new();
    queue.schedule(300.0, "timer");
    queue.schedule(100.0, "first");
    assert_eq!(queue.pop(), Some((100.0, "first")));
    queue.schedule(310.0, "last");
    assert_eq!(queue.pop(), Some((300.0, "timer")));
    queue.schedule(305.0, "between");
    assert_eq!(queue.pop(), Some((305.0, "between")));
    assert_eq!(queue.pop(), Some((310.0, "last")));
    assert!(queue.is_empty());
}
