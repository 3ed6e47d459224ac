//! One-thread benchmark of the scenario engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` alternates timing the set-up of the workload's networks and
//! its grid end to end through `churn_sim::scenario::run_scenario` for
//! `--seconds` seconds and reports medians. `--trace 1` runs
//! the grid once for reference records, then replays the same cells through
//! the layers' public functions, untraced and traced in turn, and reports
//! per-layer self times and counts. Either way the last stdout line is the
//! result object; the line before it describes the run (machine
//! fingerprint, drift-control time, checkpoint digest, samples).

mod check;
mod micro;
mod replay;
mod span;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use churn_core::DynamicNetwork;
use churn_sim::scenario::{run_scenario, GridPreset, RunOptions, Scenario};

use span::Tracer;
use sys::{json_string, median};
use workloads::{build_net, cells, Workload};

/// Drift-control kernel repetitions per traced run.
const DRIFT_REPS: usize = 3;

/// Fewest set-up + grid rounds of an end-to-end run, so that `setup_s`
/// and `wall_s` are medians of several samples even when one round
/// outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", items.join(","))
}

fn main() -> ExitCode {
    // The pool is pinned before anything parallel runs: the vendored pool
    // reads this variable once, at its first use.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if rayon::current_num_threads() != 1 {
        eprintln!("perfbench: the worker pool did not pin to one thread");
        return ExitCode::FAILURE;
    }
    let scenario = match args.workload.scenario(args.seed) {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        run_traced(&args, &scenario)
    } else {
        run_end_to_end(&args, &scenario)
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_options(args: &Args) -> RunOptions {
    RunOptions {
        preset: GridPreset::Full,
        resume: false,
        dir: args.out.clone(),
        limit: None,
        series: false,
    }
}

/// The pinned digest applies at the default seed only.
fn pinned_digest(args: &Args) -> Option<u64> {
    (args.seed == 0).then_some(args.workload.digest)
}

/// `--trace 0`: rounds of one set-up pass, one grid pass and one
/// drift-control sample, for `--seconds` seconds (at least
/// [`MIN_ROUNDS`] rounds).
///
/// Interleaving spreads every metric's samples over the whole run: on a
/// shared machine the neighbours' load changes within seconds, and a
/// median of samples taken side by side follows it less than one of
/// samples taken back to back.
fn run_end_to_end(args: &Args, scenario: &Scenario) -> Result<Outcome, String> {
    let grid = cells(scenario);
    let seeds: Vec<u64> = grid.iter().map(|&(_, seed)| seed).collect();
    let opts = run_options(args);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let (mut wall, mut cpu, mut drift) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut digests = Vec::new();
    let mut correct = true;
    while digests.len() < MIN_ROUNDS || started.elapsed() < budget {
        // Set-up: build + warm-up of every cell's network through the
        // public constructors, one network alive at a time, before the
        // grid runs. `setup_s` is the pass's CPU time: the set-up is
        // single-threaded compute, and on a shared virtual machine its wall
        // time also counts the hypervisor's steal, which moved it by up to
        // 40% between runs of identical work. The wall times are printed
        // with the run.
        let cpu_before = sys::cpu_seconds();
        let pass_started = Instant::now();
        for (cell, seed) in &grid {
            let mut net = build_net(cell, *seed);
            net.warm_up();
            std::hint::black_box(net.alive_count());
        }
        setup_wall.push(pass_started.elapsed().as_secs_f64());
        setup.push(sys::cpu_seconds() - cpu_before);

        let cpu_before = sys::cpu_seconds();
        let pass_started = Instant::now();
        let outcome = run_scenario(scenario, &opts).map_err(|e| format!("grid run failed: {e}"))?;
        wall.push(pass_started.elapsed().as_secs_f64());
        cpu.push(sys::cpu_seconds() - cpu_before);
        if digests.is_empty() {
            // The peak of one set-up pass and one grid: later rounds repeat
            // the same cells, so they only add allocator drift.
            peak_rss = sys::peak_rss_mb();
        }
        let (pass_failed, digest, problems) =
            check::check_outcome(&outcome, &seeds, pinned_digest(args));
        for problem in &problems {
            eprintln!("perfbench: check: {problem}");
        }
        correct &= problems.is_empty();
        attempted += seeds.len();
        failed += pass_failed;
        digests.push(digest);

        drift.push(sys::drift_ref_seconds(1));
    }
    if digests.iter().any(|&d| d != digests[0]) {
        eprintln!("perfbench: check: grid passes wrote different checkpoints");
        correct = false;
        failed = failed.max(1);
    }
    println!(
        "{{\"run\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":0,\"machine\":{},\"drift_ref_s\":{},\"digest\":\"{:016x}\",\"cells\":{},\"wall_s\":{},\"cpu_s\":{},\"setup_s\":{},\"setup_wall_s\":{}}}}}",
        args.workload.name,
        args.seed,
        sys::fingerprint_json(),
        json_number(median(&mut drift.clone())),
        digests[0],
        seeds.len(),
        json_list(&wall),
        json_list(&cpu),
        json_list(&setup),
        json_list(&setup_wall),
    );
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "wall_s",
                value: median(&mut wall),
                unit: "s",
            },
            Metric {
                name: "cpu_s",
                value: median(&mut cpu),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss,
                unit: "MB",
            },
            Metric {
                name: "setup_s",
                value: median(&mut setup),
                unit: "s",
            },
        ],
    })
}

/// `--trace 1`: one reference grid run, then untraced/traced replay pairs
/// for `--seconds` seconds (at least two pairs).
fn run_traced(args: &Args, scenario: &Scenario) -> Result<Outcome, String> {
    let grid = cells(scenario);
    let seeds: Vec<u64> = grid.iter().map(|&(_, seed)| seed).collect();
    let grid_started = Instant::now();
    let outcome =
        run_scenario(scenario, &run_options(args)).map_err(|e| format!("grid run failed: {e}"))?;
    let grid_wall = grid_started.elapsed().as_secs_f64();
    let (mut failed, digest, problems) =
        check::check_outcome(&outcome, &seeds, pinned_digest(args));
    for problem in &problems {
        eprintln!("perfbench: check: {problem}");
    }
    let mut correct = problems.is_empty();
    let mut attempted = seeds.len();
    let records = &outcome.records;

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut self_times: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first: Option<(Tracer, replay::Counts)> = None;
    let timed_replay = |enabled: bool, times: &mut Vec<f64>| {
        let mut tracer = Tracer::new(enabled);
        let pass_started = Instant::now();
        let pass = replay::replay(scenario, &mut tracer);
        replay::serialize(records, &mut tracer);
        times.push(pass_started.elapsed().as_secs_f64());
        (tracer, pass)
    };
    loop {
        // Alternate which side runs first, so machine drift within a pair
        // does not bias the tracing overhead.
        let ((on, pass), (_, plain)) = if traced.len() % 2 == 0 {
            let plain = timed_replay(false, &mut untraced);
            (timed_replay(true, &mut traced), plain)
        } else {
            let traced_pass = timed_replay(true, &mut traced);
            (traced_pass, timed_replay(false, &mut untraced))
        };
        for replayed in [&plain, &pass] {
            let mismatches = replay::fidelity_problems(replayed, records);
            for problem in &mismatches {
                eprintln!("perfbench: fidelity: {problem}");
            }
            correct &= mismatches.is_empty();
            failed += mismatches.len();
            attempted += seeds.len();
        }
        self_times.push(on.self_seconds());
        if first.is_none() {
            first = Some((on, pass.counts));
        }
        if traced.len() >= 2 && started.elapsed() >= budget {
            break;
        }
    }
    let (tracer, counts) = first.expect("at least one replay pass ran");
    let costs = micro::replay_event_layer(&counts.shapes);
    let drift = sys::drift_ref_seconds(DRIFT_REPS);

    let spans_path = args.out.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name, args.seed
    ));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let layer = |name: &str| {
        let mut values: Vec<f64> = self_times
            .iter()
            .map(|times| times.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&mut values)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let loop_s = layer("event.loop");
    // Useful work per attempt: repairs completed per repair requested on
    // the protocol engine, nodes informed per delivery on a flood.
    let useful = if counts.repair_requests > 0 {
        ratio(
            counts.repairs_completed as f64,
            counts.repair_requests as f64,
        )
    } else {
        ratio(
            counts.flood_informed as f64,
            counts.messages_delivered as f64,
        )
    };
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("core.build_s", layer("core.build"), "s"),
        metric("core.warm_up_s", layer("core.warm_up"), "s"),
        metric("core.warm_up_steps", counts.warm_up_steps as f64, "count"),
        metric(
            "core.ns_per_churn_step",
            ratio(layer("core.warm_up") * 1e9, counts.warm_up_steps as f64),
            "ns",
        ),
        metric("protocol.build_s", layer("protocol.build"), "s"),
        metric("protocol.warm_up_s", layer("protocol.warm_up"), "s"),
        metric(
            "protocol.rejection_rate",
            ratio(counts.raes_rejected as f64, counts.raes_requests as f64),
            "ratio",
        ),
        metric("core.flood_s", layer("core.flood"), "s"),
        metric("core.flood_rounds", counts.flood_rounds as f64, "count"),
        metric("observe.overlap_s", layer("observe.overlap"), "s"),
        metric("observe.census_s", layer("observe.census"), "s"),
        metric("observe.init_s", layer("observe.init"), "s"),
        metric("observe.apply_s", layer("observe.apply"), "s"),
        metric("observe.to_snapshot_s", layer("observe.to_snapshot"), "s"),
        metric("core.observe_churn_s", layer("core.observe_churn"), "s"),
        metric("core.expansion_s", layer("core.expansion"), "s"),
        metric("event.loop_s", loop_s, "s"),
        metric("event.events", counts.events as f64, "count"),
        metric("event.messages_sent", counts.messages_sent as f64, "count"),
        metric(
            "event.ns_per_event",
            ratio(loop_s * 1e9, counts.events as f64),
            "ns",
        ),
        metric("event.useful_frac", useful, "ratio"),
        metric("event.dropped", counts.dropped as f64, "count"),
        metric("event.retransmits", counts.retransmits as f64, "count"),
        metric(
            "event.retries_exhausted",
            counts.retries_exhausted as f64,
            "count",
        ),
        metric("stochastic.sched_schedule_ns", costs.schedule_ns, "ns"),
        metric("stochastic.sched_pop_ns", costs.pop_ns, "ns"),
        metric("event.egress_enqueue_ns", costs.egress_ns, "ns"),
        metric("event.latency_draw_ns", costs.latency_ns, "ns"),
        metric("event.stats_delay_ns", costs.stats_ns, "ns"),
        metric("event.fault_gate_ns", costs.fault_ns, "ns"),
        metric(
            "event.replay_attributed_frac",
            ratio(costs.attributed_s, loop_s),
            "ratio",
        ),
        metric("sim.serialize_s", layer("sim.serialize"), "s"),
        metric("sim.unattributed_s", layer("sim.cell"), "s"),
        metric(
            "trace.overhead_frac",
            ratio(median(&mut traced.clone()), median(&mut untraced.clone())) - 1.0,
            "ratio",
        ),
        metric("drift.ref_s", drift, "s"),
    ];

    // Self time per layer in the first traced pass, next to the reference
    // grid's wall time: the shares recorded in the prediction table.
    let layer_s: Vec<String> = tracer
        .self_seconds()
        .iter()
        .map(|(name, secs)| format!("\"{name}\":{}", json_number(*secs)))
        .collect();
    println!(
        "{{\"run\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":1,\"machine\":{},\"digest\":\"{:016x}\",\"cells\":{},\"spans\":{},\"spans_file\":{},\"grid_wall_s\":{},\"untraced_s\":{},\"traced_s\":{},\"layer_s\":{{{}}}}}}}",
        args.workload.name,
        args.seed,
        sys::fingerprint_json(),
        digest,
        seeds.len(),
        tracer.spans().len(),
        json_string(&spans_path.display().to_string()),
        json_number(grid_wall),
        json_list(&untraced),
        json_list(&traced),
        layer_s.join(","),
    );
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    })
}
