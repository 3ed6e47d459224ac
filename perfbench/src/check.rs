//! The output check every run makes: the checkpoint digest at the default
//! seed, and the invariant columns of every record at any seed.

use churn_sim::scenario::{CellRecord, ScenarioOutcome};

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The invariants of one record that hold at every seed; returns each
/// violation.
pub fn record_problems(record: &CellRecord) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("cell {}: {what}", record.seed));
        }
    };
    let metric = |name| record.metric(name);
    if let (Some(informed), Some(alive)) = (metric("informed"), metric("alive")) {
        require(informed <= alive, "informed > alive");
    }
    for fraction in ["final_fraction", "informed_alive_overlap"] {
        if let Some(value) = metric(fraction) {
            require(
                (0.0..=1.0).contains(&value),
                "informed fraction outside [0, 1]",
            );
        }
    }
    if let (Some(max), Some(cap)) = (metric("max_in_degree"), metric("in_degree_cap")) {
        require(max <= cap, "max_in_degree > in_degree_cap");
    }
    if let (Some(done), Some(asked)) = (metric("repairs_completed"), metric("repair_requests")) {
        require(done <= asked, "repairs_completed > repair_requests");
    }
    for expansion in ["full_range_expansion", "large_set_expansion"] {
        if let Some(value) = metric(expansion) {
            require(value.is_finite(), "expansion value is not finite");
        }
    }
    problems
}

/// Checks one grid run: every cell present and in order, no panicked cell,
/// every record's invariants, and — when `pinned` is given — the checkpoint
/// bytes' digest. Returns the number of failed cells, the digest of the
/// checkpoint, and a description of each problem.
pub fn check_outcome(
    outcome: &ScenarioOutcome,
    expected_seeds: &[u64],
    pinned: Option<u64>,
) -> (usize, u64, Vec<String>) {
    let mut problems: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("cell {} panicked: {}", f.seed, f.error))
        .collect();
    let mut failed = outcome.failures.len();
    let seeds: Vec<u64> = outcome.records.iter().map(|r| r.seed).collect();
    if seeds != expected_seeds {
        problems.push(format!(
            "checkpoint holds {} records, expected {} in grid order",
            seeds.len(),
            expected_seeds.len()
        ));
        // Panicked cells are absent from the records and already counted.
        failed += expected_seeds
            .iter()
            .filter(|&s| !seeds.contains(s) && !outcome.failures.iter().any(|f| f.seed == *s))
            .count();
    }
    for record in &outcome.records {
        let found = record_problems(record);
        if !found.is_empty() {
            failed += 1;
            problems.extend(found);
        }
    }
    let digest = match std::fs::read(&outcome.path) {
        Ok(bytes) => fnv1a(&bytes),
        Err(e) => {
            problems.push(format!("cannot read the checkpoint: {e}"));
            0
        }
    };
    if let Some(pinned) = pinned {
        if digest != pinned {
            problems.push(format!(
                "checkpoint digest {digest:016x} differs from the pinned {pinned:016x}"
            ));
            failed = failed.max(1);
        }
    }
    (failed, digest, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_sim::scenario::CellFailure;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn record(seed: u64, metrics: Vec<(String, f64)>) -> CellRecord {
        CellRecord {
            scenario: "s".into(),
            net: "RAES".into(),
            n: 8,
            d: 2,
            victim: "uniform".into(),
            fault: None,
            trial: 0,
            seed,
            metrics,
        }
    }

    #[test]
    fn invariant_violations_are_reported() {
        let record = record(
            1,
            vec![
                ("informed".into(), 9.0),
                ("alive".into(), 8.0),
                ("max_in_degree".into(), 3.0),
                ("in_degree_cap".into(), 4.0),
                ("full_range_expansion".into(), f64::NAN),
            ],
        );
        let problems = record_problems(&record);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn a_panicked_cell_counts_once() {
        let outcome = ScenarioOutcome {
            records: vec![record(1, Vec::new()), record(3, Vec::new())],
            executed: 2,
            skipped: 0,
            total: 4,
            path: std::path::PathBuf::from("/nonexistent/checkpoint.jsonl"),
            failures: vec![CellFailure {
                scenario: "s".into(),
                net: "RAES".into(),
                n: 8,
                d: 2,
                victim: "uniform".into(),
                trial: 0,
                seed: 2,
                error: "boom".into(),
            }],
            loads: Vec::new(),
        };
        // Cell 2 panicked and cell 4 is missing: two failed cells.
        let (failed, _, problems) = check_outcome(&outcome, &[1, 2, 3, 4], None);
        assert_eq!(failed, 2, "{problems:?}");
    }
}
