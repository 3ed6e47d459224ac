//! Golden-equivalence suite: ported scenarios reproduce the pre-refactor
//! binaries' measurements exactly.
//!
//! Each test replays a legacy binary's measurement loop — the literal
//! pre-refactor control flow: the cell's seed (`Scenario::cell_seed`, whose
//! derivation a literal seed table in `churn-sim` pins to the legacy
//! binaries' seeds), `build_with_victim`, the same warm-up / census /
//! flooding calls — at the scenario's small-`n` smoke grid, and compares
//! against the records the scenario engine wrote:
//!
//! * `adversarial-churn` (E12) and `isolated-nodes` (E1): the engine's
//!   output file is **byte-identical** to records serialised from the legacy
//!   loop's values.
//! * `raes-flooding` (E11) and `flooding-scaling` (E6): every metric the
//!   legacy binary measured is equal to the engine's value **bit for bit**
//!   (`f64::to_bits`; E11's `informed_alive_overlap` must equal the legacy
//!   flood's final fraction. The engine additionally records the
//!   uninformed-population metrics the legacy binaries did not have, so
//!   whole-file byte equality is checked over the shared prefix of each
//!   record's metric list).
//! * The `n = 10⁶` rows (`Scenario::large`): run on the smoke grids of the
//!   separate `<name>-1m` scenarios they replace, they write those
//!   scenarios' recorded smoke bytes (a literal FNV-1a table).
//!
//! An engine trajectory can only match the legacy loop's if the per-cell
//! seeds, model construction and measurement order are all unchanged — which
//! is exactly what these tests pin.

use std::fs;
use std::path::PathBuf;

use churn_bench::scenarios::registry;
use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
use churn_core::DynamicNetwork;
use churn_observe::{LifetimeIsolation, LiveMetrics};
use churn_protocol::{RaesConfig, RaesModel};
use churn_sim::observe_rounds;
use churn_sim::scenario::{
    run_scenario, scenario_load_path, CellRecord, Grid, GridPreset, NetSpec, RunOptions, Scenario,
};

fn run_smoke(scenario: &Scenario, tag: &str) -> (Vec<CellRecord>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("churn-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let opts = RunOptions {
        preset: GridPreset::Smoke,
        dir,
        ..RunOptions::default()
    };
    let outcome = run_scenario(scenario, &opts).expect("scenario runs");
    assert_eq!(outcome.executed, outcome.total);
    (outcome.records, outcome.path)
}

#[test]
fn adversarial_churn_records_are_byte_identical_to_the_legacy_loop() {
    let registry = registry();
    let scenario = registry.get("adversarial-churn").unwrap();
    let (_, path) = run_smoke(scenario, "e12");

    let mut expected = String::new();
    for cell in scenario.cells(GridPreset::Smoke) {
        let NetSpec::Baseline(kind) = cell.net else {
            panic!("E12 runs on baselines");
        };
        let seed = scenario.cell_seed(&cell);
        // The pre-refactor exp_adversarial_churn measurement body.
        let mut model = kind
            .build_with_victim(cell.n, cell.d, seed, cell.victim)
            .expect("valid parameters");
        model.warm_up();
        let metrics = LiveMetrics::new(model.graph());
        let isolated_fraction = metrics.isolated_count() as f64 / model.alive_count().max(1) as f64;
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::with_max_rounds(200),
            1,
        );
        let expected_record = CellRecord {
            scenario: scenario.name().to_string(),
            net: cell.net.label(),
            n: cell.n,
            d: cell.d,
            victim: cell.victim.label().to_string(),
            fault: None,
            trial: cell.trial,
            seed,
            metrics: vec![
                ("isolated_fraction".into(), isolated_fraction),
                (
                    "flooding_rounds".into(),
                    record.outcome.rounds().unwrap_or(200).min(200) as f64,
                ),
                ("completed".into(), f64::from(record.outcome.is_complete())),
                ("died_out".into(), f64::from(record.outcome.is_died_out())),
                ("final_fraction".into(), record.final_fraction()),
                ("peak_informed".into(), record.peak_informed() as f64),
            ],
        };
        expected.push_str(&expected_record.to_json_line());
        expected.push('\n');
    }
    assert_eq!(
        fs::read_to_string(&path).unwrap(),
        expected,
        "engine output must be byte-identical to the legacy measurement loop"
    );
    fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn isolated_nodes_records_are_byte_identical_to_the_legacy_loop() {
    let registry = registry();
    let scenario = registry.get("isolated-nodes").unwrap();
    let (_, path) = run_smoke(scenario, "e1");

    let mut expected = String::new();
    for cell in scenario.cells(GridPreset::Smoke) {
        let NetSpec::Baseline(kind) = cell.net else {
            panic!("E1 runs on baselines");
        };
        let seed = scenario.cell_seed(&cell);
        // The pre-refactor exp_isolated_nodes isolation_trial body.
        let mut model = kind
            .build_with_victim(cell.n, cell.d, seed, cell.victim)
            .expect("valid parameters");
        model.warm_up();
        let horizon = if kind.is_streaming() {
            cell.n as u64
        } else {
            3 * cell.n as u64
        };
        let alive = model.alive_count().max(1);
        let mut tracker = LifetimeIsolation::start(model.graph());
        let isolated_now = tracker.initial_isolated().len();
        observe_rounds(&mut model, horizon, |_, m, _, delta| {
            tracker.apply(m.graph(), delta);
        });
        let lifetime = tracker.finish(model.graph());
        let expected_record = CellRecord {
            scenario: scenario.name().to_string(),
            net: cell.net.label(),
            n: cell.n,
            d: cell.d,
            victim: cell.victim.label().to_string(),
            fault: None,
            trial: cell.trial,
            seed,
            metrics: vec![
                (
                    "isolated_fraction".into(),
                    isolated_now as f64 / alive as f64,
                ),
                (
                    "lifetime_fraction".into(),
                    lifetime.len() as f64 / alive as f64,
                ),
                ("horizon".into(), horizon as f64),
            ],
        };
        expected.push_str(&expected_record.to_json_line());
        expected.push('\n');
    }
    assert_eq!(
        fs::read_to_string(&path).unwrap(),
        expected,
        "engine output must be byte-identical to the legacy measurement loop"
    );
    fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn raes_flooding_metrics_match_the_legacy_loop_bit_for_bit() {
    let registry = registry();
    let scenario = registry.get("raes-flooding").unwrap();
    let (records, path) = run_smoke(scenario, "e11");

    for (cell, record) in scenario.cells(GridPreset::Smoke).iter().zip(&records) {
        let max_rounds = 8 * (cell.n as f64).log2().ceil() as u64;
        // The pre-refactor exp_raes_flooding measurement body: the RAES rows
        // built a default RaesConfig, the baselines went through the sweep's
        // build path; all flooded through the sharded parallel engine.
        let (flood, isolated_fraction, protocol) = match cell.net {
            NetSpec::Raes(_) => {
                let seed = scenario.cell_seed(cell);
                assert_eq!(seed, record.seed);
                let mut model = RaesModel::new(RaesConfig::new(cell.n, cell.d).seed(seed)).unwrap();
                model.warm_up();
                let isolated = churn_core::isolated::isolated_now(&model).len() as f64
                    / model.alive_count().max(1) as f64;
                let flood = run_flooding(
                    &mut model,
                    FloodingSource::NextToJoin,
                    &FloodingConfig::with_max_rounds(max_rounds),
                    2,
                );
                let alive = model.alive_count().max(1);
                let protocol = vec![
                    ("max_in_degree", model.max_in_degree() as f64),
                    ("in_degree_cap", model.in_degree_cap() as f64),
                    ("rejection_rate", model.stats().rejection_rate()),
                    ("mean_repair_latency", model.stats().mean_repair_latency()),
                    (
                        "pending_backlog",
                        model.pending_requests().len() as f64 / alive as f64,
                    ),
                ];
                (flood, isolated, protocol)
            }
            NetSpec::Baseline(kind) => {
                let seed = scenario.cell_seed(cell);
                assert_eq!(seed, record.seed);
                let mut model = kind
                    .build_with_victim(cell.n, cell.d, seed, cell.victim)
                    .unwrap();
                model.warm_up();
                let isolated = churn_core::isolated::isolated_now(&model).len() as f64
                    / model.alive_count().max(1) as f64;
                let flood = run_flooding(
                    &mut model,
                    FloodingSource::NextToJoin,
                    &FloodingConfig::with_max_rounds(max_rounds),
                    2,
                );
                (flood, isolated, Vec::new())
            }
            _ => panic!("E11 has no static/p2p nets"),
        };
        let mut expected: Vec<(&str, f64)> = vec![
            ("isolated_fraction", isolated_fraction),
            (
                "flooding_rounds",
                flood.outcome.rounds().unwrap_or(max_rounds).min(max_rounds) as f64,
            ),
            ("completed", f64::from(flood.outcome.is_complete())),
            ("died_out", f64::from(flood.outcome.is_died_out())),
            ("final_fraction", flood.final_fraction()),
            ("peak_informed", flood.peak_informed() as f64),
            // The informed-alive overlap is the flood's last informed
            // fraction: the same count over the same alive population.
            ("informed_alive_overlap", flood.final_fraction()),
        ];
        expected.extend(protocol);
        for (metric, value) in expected {
            let engine = record
                .metric(metric)
                .unwrap_or_else(|| panic!("metric {metric} missing"));
            assert_eq!(
                engine.to_bits(),
                value.to_bits(),
                "{metric} must match the legacy loop bit for bit ({} {})",
                record.net,
                record.trial
            );
        }
    }
    fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn flooding_scaling_metrics_match_the_legacy_loop_bit_for_bit() {
    let registry = registry();
    let scenario = registry.get("flooding-scaling").unwrap();
    let (records, path) = run_smoke(scenario, "e6");

    for (cell, record) in scenario.cells(GridPreset::Smoke).iter().zip(&records) {
        let NetSpec::Baseline(kind) = cell.net else {
            panic!("E6 runs on baselines");
        };
        let seed = scenario.cell_seed(cell);
        assert_eq!(seed, record.seed);
        // The pre-refactor fig_flooding_scaling trial body.
        let mut model = kind
            .build_with_victim(cell.n, cell.d, seed, cell.victim)
            .unwrap();
        model.warm_up();
        let flood = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            2,
        );
        assert!(flood.outcome.is_complete(), "regeneration models complete");
        assert_eq!(
            record.metric("flooding_rounds").unwrap().to_bits(),
            (flood.outcome.rounds().unwrap() as f64).to_bits()
        );
        assert_eq!(record.metric("completed"), Some(1.0));
        assert_eq!(
            record.metric("final_fraction").unwrap().to_bits(),
            flood.final_fraction().to_bits()
        );
    }
    fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn byzantine_f0_records_reproduce_raes_flooding_bit_for_bit() {
    // The zero-adversary acceptance gate: the f = 0 column of every
    // byzantine scenario (a plain `NetSpec::raes_default()` net) must
    // reproduce the corresponding `raes-flooding` RAES record exactly —
    // same seed, same metric list, every value bit for bit. Anything the
    // behavior layer perturbs on the honest path would show up here.
    let registry = registry();
    let e11 = registry.get("raes-flooding").unwrap();
    let (e11_records, e11_path) = run_smoke(e11, "byz-anchor-e11");
    let raes_reference: Vec<&CellRecord> = e11_records.iter().filter(|r| r.net == "RAES").collect();
    assert!(!raes_reference.is_empty());

    for (name, tag) in [
        ("byzantine-raes", "byz-uniform"),
        ("byzantine-eclipse", "byz-eclipse"),
    ] {
        let scenario = registry.get(name).unwrap();
        let (records, path) = run_smoke(scenario, tag);
        let mut anchors = 0;
        for record in records.iter().filter(|r| r.net == "RAES") {
            let reference = raes_reference
                .iter()
                .find(|r| r.seed == record.seed)
                .unwrap_or_else(|| panic!("{name} f = 0 cell has no E11 twin"));
            assert_eq!(record.n, reference.n);
            assert_eq!(record.trial, reference.trial);
            assert_eq!(
                record.metrics.len(),
                reference.metrics.len(),
                "{name} f = 0 records must carry E11's exact metric schema"
            );
            for ((metric, value), (ref_metric, ref_value)) in
                record.metrics.iter().zip(&reference.metrics)
            {
                assert_eq!(metric, ref_metric);
                assert_eq!(
                    value.to_bits(),
                    ref_value.to_bits(),
                    "{name} f = 0 {metric} must match raes-flooding bit for bit"
                );
            }
            anchors += 1;
        }
        assert!(anchors > 0, "{name} smoke grid has no f = 0 anchor");
        // Corrupted rows carry the extra byzantine metric columns the
        // anchor rows must not have.
        let corrupted = records
            .iter()
            .find(|r| r.net != "RAES")
            .expect("byzantine scenarios have adversarial nets");
        assert!(corrupted.metric("byz_alive_fraction").is_some());
        assert!(corrupted.metric("honest_final_fraction").is_some());
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }
    fs::remove_dir_all(e11_path.parent().unwrap()).ok();
}

#[test]
fn async_smoke_records_replay_the_pre_chaos_fixtures_byte_for_byte() {
    // The fault layer's golden anchor: the E16 / E17 smoke files recorded
    // *before* the chaos layer existed must replay byte-identically through
    // the (now fault-aware) engines with their implicit empty `FaultPlan` —
    // the fault path consumes zero randomness when no axis is active.
    let registry = registry();
    for (name, fixture) in [
        ("async-flooding", "async-flooding.smoke.jsonl"),
        ("async-raes-load", "async-raes-load.smoke.jsonl"),
    ] {
        let scenario = registry.get(name).unwrap();
        let (_, path) = run_smoke(scenario, &format!("fixture-{name}"));
        let fixture_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(fixture);
        assert_eq!(
            fs::read(&path).unwrap(),
            fs::read(&fixture_path).unwrap(),
            "{name} smoke records must replay the recorded fixture byte for byte"
        );
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

#[test]
fn chaos_fault_free_records_reproduce_e16_bit_for_bit() {
    // The fault-rate-0 acceptance gate for the flooding-side chaos
    // scenarios: their fault-free rows must reproduce the corresponding
    // async-flooding records exactly — same seed, same metric list, every
    // value bit for bit. Fault rows must carry the extra fault columns the
    // anchors never have.
    let registry = registry();
    let e16 = registry.get("async-flooding").unwrap();
    let (e16_records, e16_path) = run_smoke(e16, "chaos-anchor-e16");
    let sdgr_reference: Vec<&CellRecord> = e16_records.iter().filter(|r| r.net == "SDGR").collect();
    assert!(!sdgr_reference.is_empty());

    for (name, tag) in [
        ("lossy-flooding", "chaos-lossy"),
        ("partition-healing", "chaos-part"),
    ] {
        let scenario = registry.get(name).unwrap();
        let (records, path) = run_smoke(scenario, tag);
        let mut anchors = 0;
        for record in records.iter().filter(|r| r.fault.is_none()) {
            let reference = sdgr_reference
                .iter()
                .find(|r| r.seed == record.seed)
                .unwrap_or_else(|| panic!("{name} fault-free cell has no E16 twin"));
            assert_eq!(record.n, reference.n);
            assert_eq!(record.trial, reference.trial);
            assert_eq!(
                record.metrics.len(),
                reference.metrics.len(),
                "{name} fault-free records must carry E16's exact metric schema"
            );
            for ((metric, value), (ref_metric, ref_value)) in
                record.metrics.iter().zip(&reference.metrics)
            {
                assert_eq!(metric, ref_metric);
                assert_eq!(
                    value.to_bits(),
                    ref_value.to_bits(),
                    "{name} fault-free {metric} must match async-flooding bit for bit"
                );
            }
            anchors += 1;
        }
        assert!(anchors > 0, "{name} smoke grid has no fault-free anchor");
        // Fault rows carry the fault counter columns the anchors lack.
        let faulty = records
            .iter()
            .find(|r| r.fault.is_some())
            .expect("chaos scenarios have fault rows");
        assert!(faulty.metric("messages_fault_lost").is_some());
        assert!(faulty.metric("redundancy_overhead").is_some());
        if name == "partition-healing" {
            assert!(faulty.metric("time_to_reheal").is_some());
            assert!(faulty.metric("partition_recovered").is_some());
            assert!(faulty.metric("anti_entropy_pulls").is_some());
        }
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }
    fs::remove_dir_all(e16_path.parent().unwrap()).ok();
}

#[test]
fn crash_restart_fault_free_records_reproduce_e17_bit_for_bit() {
    // Same gate on the RAES side: crash-restart-raes's fault-free row must
    // reproduce async-raes-load's default-net record exactly, and its chaos
    // rows must terminate (never wedge) while reporting the retry columns.
    let registry = registry();
    let e17 = registry.get("async-raes-load").unwrap();
    let (e17_records, e17_path) = run_smoke(e17, "chaos-anchor-e17");

    let scenario = registry.get("crash-restart-raes").unwrap();
    let (records, path) = run_smoke(scenario, "chaos-crash");
    let mut anchors = 0;
    for record in records.iter().filter(|r| r.fault.is_none()) {
        let reference = e17_records
            .iter()
            .find(|r| r.seed == record.seed)
            .unwrap_or_else(|| panic!("crash-restart-raes fault-free cell has no E17 twin"));
        assert_eq!(
            record.metrics.len(),
            reference.metrics.len(),
            "fault-free records must carry E17's exact metric schema"
        );
        for ((metric, value), (ref_metric, ref_value)) in
            record.metrics.iter().zip(&reference.metrics)
        {
            assert_eq!(metric, ref_metric);
            assert_eq!(
                value.to_bits(),
                ref_value.to_bits(),
                "crash-restart-raes fault-free {metric} must match async-raes-load bit for bit"
            );
        }
        anchors += 1;
    }
    assert!(anchors > 0, "crash-restart-raes smoke grid has no anchor");
    // The 30%-loss + crash row ran to completion (run_smoke asserts every
    // cell executed) and reports the retry/crash accounting.
    let chaotic = records
        .iter()
        .find(|r| r.fault.as_deref().is_some_and(|f| f.contains("loss")))
        .expect("crash-restart-raes has a lossy chaos row");
    assert!(chaotic.metric("retransmits").is_some());
    assert!(chaotic.metric("retries_exhausted").is_some());
    assert!(chaotic.metric("p99_backoff").is_some());
    assert!(chaotic.metric("crashes").is_some());
    fs::remove_dir_all(path.parent().unwrap()).ok();
    fs::remove_dir_all(e17_path.parent().unwrap()).ok();
}

#[test]
fn recorded_scenario_files_stay_byte_stable_with_load_columns_sidelined() {
    // Golden safety for the per-cell throughput columns: wall-clock data
    // must live in the non-checkpointed `.load.jsonl` side file, never in
    // the scenario records themselves — so every previously recorded file
    // (E1/E3/E6/E11/E12, byzantine f = 0 rows) replays byte-identically.
    // E1/E12 are pinned against the legacy loops above; here E3 (the widest
    // pre-existing smoke grid) is replayed twice and compared byte for byte,
    // and E3/E6/E11 main files are checked for leaked load keys.
    let registry = registry();
    let scenario = registry.get("flooding-failure").unwrap();

    let base = std::env::temp_dir().join(format!("churn-golden-e3-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let mut bytes = Vec::new();
    for sub in ["first", "second"] {
        let opts = RunOptions {
            preset: GridPreset::Smoke,
            dir: base.join(sub),
            ..RunOptions::default()
        };
        let outcome = run_scenario(scenario, &opts).expect("scenario runs");
        assert_eq!(outcome.executed, outcome.total);
        // The side file carries exactly one line per executed cell, in
        // rounds/sec for a synchronous flooding scenario.
        assert_eq!(outcome.loads.len(), outcome.executed);
        assert!(outcome.loads.iter().all(|l| l.unit == "rounds"));
        assert!(scenario_load_path(scenario, &opts).exists());
        bytes.push(fs::read(&outcome.path).unwrap());
    }
    assert_eq!(
        bytes[0], bytes[1],
        "E3 records must replay byte-identically with the load columns sidelined"
    );
    let main_text = String::from_utf8(bytes.pop().unwrap()).unwrap();
    for key in ["wall_s", "units_per_s", "events_processed"] {
        assert!(
            !main_text.contains(key),
            "{key} leaked into the checkpointed E3 records"
        );
    }
    fs::remove_dir_all(&base).ok();

    for (name, tag) in [
        ("flooding-scaling", "e6-load"),
        ("raes-flooding", "e11-load"),
    ] {
        let scenario = registry.get(name).unwrap();
        let (_, path) = run_smoke(scenario, tag);
        let text = fs::read_to_string(&path).unwrap();
        for key in ["wall_s", "units_per_s"] {
            assert!(!text.contains(key), "{key} leaked into the {name} records");
        }
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

#[test]
fn interrupted_registered_scenario_resumes_bit_identically() {
    // The sim crate pins resume determinism on a synthetic scenario; this
    // covers a *registered* one whose cells exercise the sharded parallel
    // engine and the RAES rows.
    let registry = registry();
    let scenario = registry.get("raes-flooding").unwrap();

    let base = std::env::temp_dir().join(format!("churn-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let reference = run_scenario(
        scenario,
        &RunOptions {
            preset: GridPreset::Smoke,
            dir: base.join("reference"),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let reference_bytes = fs::read(&reference.path).unwrap();

    // Kill after 4 cells, then resume.
    let interrupted = RunOptions {
        preset: GridPreset::Smoke,
        dir: base.join("resumed"),
        limit: Some(4),
        ..RunOptions::default()
    };
    let partial = run_scenario(scenario, &interrupted).unwrap();
    assert_eq!(partial.executed, 4);
    let resumed = run_scenario(
        scenario,
        &RunOptions {
            resume: true,
            limit: None,
            ..interrupted
        },
    )
    .unwrap();
    assert_eq!(resumed.skipped, 4);
    assert_eq!(
        fs::read(&resumed.path).unwrap(),
        reference_bytes,
        "resumed registered scenario must be bit-identical to an uninterrupted run"
    );
    fs::remove_dir_all(&base).ok();
}

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn large_rows_on_their_former_smoke_grids_write_the_recorded_bytes() {
    // Each entry's n = 10^6 rows were once a separate `<name>-1m` scenario
    // with its own smoke grid. Run on that grid, the large rows must write
    // the bytes that scenario's `<name>-1m.smoke.jsonl` held (records carry
    // the scenario name, cell seeds and metrics, never the preset). This is
    // also the only engine run of `ExpansionSpec { fast: true }`.
    let table: [(&str, Grid, u64); 12] = [
        (
            "isolated-nodes",
            Grid::new([128], [2], 1),
            0xf2ed_41d0_c37c_3e1e,
        ),
        (
            "large-set-expansion",
            Grid::new([128], [8], 1),
            0xf016_c6a8_a200_c299,
        ),
        (
            "flooding-failure",
            Grid::new([256], [1], 2),
            0x3b11_a212_6dd8_008c,
        ),
        (
            "onion-skin",
            Grid::new([2_048], [16], 1),
            0x5a4b_b70e_e568_24c3,
        ),
        (
            "byzantine-raes",
            Grid::new([256], [8], 1),
            0x55da_514a_9fd3_5c49,
        ),
        (
            "byzantine-eclipse",
            Grid::new([256], [8], 1),
            0x6e12_3c97_0d4b_8994,
        ),
        (
            "adversarial-churn",
            Grid::new([256], [4], 1),
            0xe085_24c8_d06d_7576,
        ),
        (
            "async-flooding",
            Grid::new([256], [4], 1),
            0x76aa_f3c1_22ea_9120,
        ),
        (
            "async-raes-load",
            Grid::new([128], [4], 1),
            0x17d5_f982_ffac_f424,
        ),
        (
            "lossy-flooding",
            Grid::new([256], [4], 1),
            0xc236_736a_865d_087e,
        ),
        (
            "partition-healing",
            Grid::new([256], [4], 1),
            0x7622_613e_1bcd_d49b,
        ),
        (
            "crash-restart-raes",
            Grid::new([128], [4], 1),
            0x0c01_1bc2_8f39_59ec,
        ),
    ];
    let registry = registry();
    for (entry, grid, digest) in table {
        let large = registry
            .get(entry)
            .and_then(Scenario::large_rows)
            .unwrap_or_else(|| panic!("{entry} declares no large rows"))
            .clone()
            .smoke_grid(grid);
        let (_, path) = run_smoke(&large, entry);
        assert_eq!(
            path.file_name().unwrap().to_str(),
            Some(format!("{entry}-1m.smoke.jsonl").as_str())
        );
        let bytes = fs::read(&path).unwrap();
        assert_eq!(fnv1a(&bytes), digest, "{entry}-1m");
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
