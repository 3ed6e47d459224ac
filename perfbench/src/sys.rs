//! Process resource usage, the machine fingerprint and the drift-control
//! kernel.

use std::time::Instant;

/// `struct timeval` of the Linux x86-64 / aarch64 ABI.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux 64-bit ABI.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` of the platform
    // layout, and `RUSAGE_SELF` is a valid `who`; getrusage writes only
    // into that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU time of the whole process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let usage = rusage();
    let secs = |tv: Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

/// The process's peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// The machine a run measured on: core count, CPU model and the worker
/// pool size the scenario engine sees, as one JSON object.
pub fn fingerprint_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\":{cores},\"cpu_model\":{},\"pool_threads\":{}}}",
        json_string(&model),
        rayon::current_num_threads()
    )
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The drift-control kernel: a fixed pointer chase through a 16 MiB
/// permutation plus integer hashing, owned by the benchmark and independent
/// of the code under test. Its time moves only with the machine. The
/// permutation is the size of the workloads' working sets (14–45 MB), so
/// the kernel feels the same contention for the shared last-level cache; a
/// 2 MiB one fitted in the private cache and did not follow the workloads.
/// Returns the median of `reps` timings, in seconds.
pub fn drift_ref_seconds(reps: usize) -> f64 {
    const LEN: usize = 1 << 22;
    const STEPS: usize = 1 << 21;
    // A single-cycle permutation (Sattolo) from a fixed seed.
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..LEN).rev() {
        state = splitmix(state);
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            at = next[at] as usize;
            acc = splitmix(acc ^ at as u64);
        }
        std::hint::black_box(acc);
        times.push(started.elapsed().as_secs_f64());
    }
    median(&mut times)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
