//! Model-based property test: [`EventQueue`] against a straightforward
//! sorted-scan reference over arbitrary interleavings of schedule / peek /
//! pop — including same-timestamp ties (FIFO contract) and sparse
//! far-future timers interleaved with near-future ties.

use churn_stochastic::EventQueue;
use proptest::prelude::*;

/// One step of the interpreted operation sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + DELTAS[i]`; small quantized offsets force plenty
    /// of exact timestamp collisions, and the far offset parks a timer
    /// behind everything else.
    Schedule(usize),
    Pop,
}

const DELTAS: [f64; 6] = [0.0, 0.0, 0.5, 0.5, 1.25, 1.0e9];

/// Reference entry: the total order is (time, seq); `alive` tracks whether
/// the event is still queued.
#[derive(Debug, Clone)]
struct ModelEntry {
    time: f64,
    seq: u64,
    alive: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Uniform union; schedule is listed twice so runs trend queue-filling.
    prop_oneof![
        (0usize..DELTAS.len()).prop_map(Op::Schedule),
        (0usize..DELTAS.len()).prop_map(Op::Schedule),
        Just(Op::Pop),
    ]
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
            match op {
                Op::Schedule(delta) => {
                    let time = now + DELTAS[delta];
                    queue.schedule(time, model.len());
                    model.push(ModelEntry { time, seq: model.len() as u64, alive: true });
                }
                Op::Pop => {
                    let best = model
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.alive)
                        .min_by(|(_, a), (_, b)| {
                            (a.time, a.seq).partial_cmp(&(b.time, b.seq)).expect("finite")
                        })
                        .map(|(idx, e)| (e.time, idx));
                    let peeked = queue.peek_time();
                    prop_assert_eq!(peeked.map(f64::to_bits), best.map(|(t, _)| t.to_bits()));
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
        }

        // Drain: the survivors must surface in exact (time, seq) order.
        let mut survivors: Vec<(u64, u64, usize)> = model
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(idx, e)| (e.time.to_bits(), e.seq, idx))
            .collect();
        survivors.sort_unstable();
        for &(time_bits, _, idx) in &survivors {
            let (time, payload) = queue.pop().expect("survivor still queued");
            prop_assert_eq!(time.to_bits(), time_bits);
            prop_assert_eq!(payload, idx);
        }
        prop_assert!(queue.pop().is_none());
        prop_assert!(queue.is_empty());
    }
}
