//! Event-layer replays: the public scheduler queue, egress queues, latency
//! model, statistics sink and fault gate, each driven on its own at a
//! workload's recorded counts and delay shape.
//!
//! The event loop is one span in the traced replay; these replays split it
//! into per-operation costs without a clock read per event. Each operation
//! runs as many times as the recorded cells performed it, timed in batches,
//! so `attributed_s` is directly comparable with the event-loop time.

use std::hint::black_box;
use std::time::Instant;

use churn_event::{EgressQueues, Enqueue, EventStats, FaultState};
use churn_stochastic::rng::seeded_rng;
use churn_stochastic::EventQueue;
use rand::Rng;

use crate::replay::AsyncShape;

/// Operations timed per clock read.
const BATCH: usize = 512;

/// Per-operation costs, in nanoseconds, and the loop time they account for.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventLayerCosts {
    pub schedule_ns: f64,
    pub pop_ns: f64,
    pub egress_ns: f64,
    pub latency_ns: f64,
    pub stats_ns: f64,
    pub fault_ns: f64,
    /// Seconds the replayed operations took in total.
    pub attributed_s: f64,
}

#[derive(Default)]
struct Tally {
    ns: u128,
    ops: u64,
}

impl Tally {
    fn add(&mut self, started: Instant, ops: usize) {
        self.ns += started.elapsed().as_nanos();
        self.ops += ops as u64;
    }

    fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// Replays every shape and returns the per-operation costs (all zero when
/// the workload has no event-driven cells).
pub fn replay_event_layer(shapes: &[AsyncShape]) -> EventLayerCosts {
    let mut schedule = Tally::default();
    let mut pop = Tally::default();
    let mut egress = Tally::default();
    let mut latency = Tally::default();
    let mut stats = Tally::default();
    let mut fault = Tally::default();
    for shape in shapes {
        replay_scheduler(shape, &mut schedule, &mut pop);
        let delays = replay_egress(shape, &mut egress);
        replay_latency(shape, &mut latency);
        replay_stats(&delays, &mut stats);
        replay_fault_gate(shape, &mut fault);
    }
    let total_ns = schedule.ns + pop.ns + egress.ns + latency.ns + stats.ns + fault.ns;
    EventLayerCosts {
        schedule_ns: schedule.per_op(),
        pop_ns: pop.per_op(),
        egress_ns: egress.per_op(),
        latency_ns: latency.per_op(),
        stats_ns: stats.per_op(),
        fault_ns: fault.per_op(),
        attributed_s: total_ns as f64 * 1e-9,
    }
}

/// One event's delay from its scheduling instant: a message delivery
/// (latency plus one service time) or, with `timer_share`, an ack timeout
/// stretched by up to two backoff steps.
fn draw_delay(shape: &AsyncShape, rng: &mut impl Rng) -> f64 {
    if shape.timer_share > 0.0 && rng.gen::<f64>() < shape.timer_share {
        shape.timeout * shape.backoff.powf(rng.gen::<f64>() * 2.0)
    } else {
        shape.latency.sample(rng) + shape.bandwidth.service_time().min(1.0)
    }
}

/// Hold model of the scheduler queue: the wiring burst plus a steady
/// pending population from Little's law, then `events` pops, each but the
/// burst's followed by a reschedule.
fn replay_scheduler(shape: &AsyncShape, schedule: &mut Tally, pop: &mut Tally) {
    let mut rng = seeded_rng(shape.seed ^ 0x5C4E);
    let rate = shape.events as f64 / shape.sim_time.max(1e-9);
    let residence = (1.0 - shape.timer_share)
        * (shape.latency.mean() + shape.bandwidth.service_time().min(1.0))
        + shape.timer_share * shape.timeout * shape.backoff;
    let steady = ((rate * residence) as u64).clamp(1, shape.events.max(1));
    let mut queue: EventQueue<u64> = EventQueue::new();
    // The burst is sent at t = 0 and lands after one message delay each.
    let initial: Vec<f64> = (0..shape.initial_burst + steady)
        .map(|_| draw_delay(shape, &mut rng))
        .collect();
    for chunk in initial.chunks(BATCH) {
        let started = Instant::now();
        for (i, &time) in chunk.iter().enumerate() {
            black_box(queue.schedule(time, i as u64));
        }
        schedule.add(started, chunk.len());
    }
    let mut delays = [0.0f64; BATCH];
    let mut remaining = shape.events;
    let mut burst_left = shape.initial_burst as usize;
    while remaining > 0 {
        let batch = remaining.min(BATCH as u64) as usize;
        remaining -= batch as u64;
        for delay in delays.iter_mut().take(batch) {
            *delay = draw_delay(shape, &mut rng);
        }
        let started = Instant::now();
        let mut got = 0;
        for _ in 0..batch {
            match queue.pop() {
                Some(event) => {
                    black_box(event);
                    got += 1;
                }
                None => break,
            }
        }
        pop.add(started, got);
        // Each popped event schedules a successor from the current instant
        // (the queue refuses times in the past), except the wiring burst,
        // which drains.
        let drained = burst_left.min(got);
        burst_left -= drained;
        let now = queue.now();
        let started = Instant::now();
        for (i, &delay) in delays.iter().take(got - drained).enumerate() {
            black_box(queue.schedule(now + delay, i as u64));
        }
        schedule.add(started, got - drained);
    }
}

/// `messages` offers to the egress queues: senders forward `burst` copies
/// at one instant, spread uniformly over the simulated run. Returns the
/// queue delays the offers met.
fn replay_egress(shape: &AsyncShape, tally: &mut Tally) -> Vec<f64> {
    let mut rng = seeded_rng(shape.seed ^ 0xE6E5);
    let mut queues = EgressQueues::new(shape.bandwidth);
    let bursts = (shape.messages / shape.burst.max(1)).max(1);
    let step = shape.sim_time / bursts as f64;
    let mut offers: Vec<(u64, f64)> = Vec::with_capacity(shape.messages as usize);
    'fill: for b in 0..bursts {
        let sender = rng.gen_range(0..shape.n as u64);
        for _ in 0..shape.burst.max(1) {
            if offers.len() as u64 == shape.messages {
                break 'fill;
            }
            offers.push((sender, b as f64 * step));
        }
    }
    let mut delays = Vec::with_capacity(offers.len());
    for chunk in offers.chunks(BATCH) {
        let started = Instant::now();
        for &(sender, now) in chunk {
            if let Enqueue::Sent { queue_delay, .. } = queues.enqueue(sender, now) {
                delays.push(queue_delay);
            }
        }
        tally.add(started, chunk.len());
    }
    delays
}

/// `messages` latency draws from the workload's latency model.
fn replay_latency(shape: &AsyncShape, tally: &mut Tally) {
    let mut rng = seeded_rng(shape.seed ^ 0x1A7E);
    let mut remaining = shape.messages;
    while remaining > 0 {
        let batch = remaining.min(BATCH as u64);
        remaining -= batch;
        let started = Instant::now();
        for _ in 0..batch {
            black_box(shape.latency.sample(&mut rng));
        }
        tally.add(started, batch as usize);
    }
}

/// The queue delays recorded into a fresh statistics sink.
fn replay_stats(delays: &[f64], tally: &mut Tally) {
    let mut stats = EventStats::new();
    for chunk in delays.chunks(BATCH) {
        let started = Instant::now();
        for &delay in chunk {
            stats.record_queue_delay(delay);
        }
        tally.add(started, chunk.len());
    }
    black_box(stats.mean_queue_delay());
}

/// The fault gate (`copies` then `blocked`) once per message, under the
/// cell's own fault plan.
fn replay_fault_gate(shape: &AsyncShape, tally: &mut Tally) {
    let plan = shape.fault.resolve();
    let mut gate = FaultState::new(&plan, shape.seed);
    let mut rng = seeded_rng(shape.seed ^ 0xFA17);
    let step = shape.sim_time / shape.messages.max(1) as f64;
    let links: Vec<(u64, u64)> = (0..shape.messages)
        .map(|_| {
            (
                rng.gen_range(0..shape.n as u64),
                rng.gen_range(0..shape.n as u64),
            )
        })
        .collect();
    for (c, chunk) in links.chunks(BATCH).enumerate() {
        let now = (c * BATCH) as f64 * step;
        let started = Instant::now();
        for &(sender, receiver) in chunk {
            black_box(gate.copies(sender, receiver));
            black_box(gate.blocked(now, sender, receiver));
        }
        tally.add(started, chunk.len());
    }
}
