//! Memory-regression guard for the streaming trace path.
//!
//! [`TraceMode::Bins`] exists so the series pipeline never buffers a full
//! event trace: memory must be O(horizon), not O(events). This test pins
//! that property with a counting global allocator. The same deterministic
//! run is executed twice — once buffering every `TraceEvent` under
//! [`TraceMode::Full`], once streaming under [`TraceMode::Bins`] — and the
//! Full-mode live-byte peak must exceed the Bins-mode peak by at least half
//! the trace's own bytes. A regression that quietly reintroduces full-trace
//! buffering (e.g. binning *after* the run again) erases that gap and trips
//! the assertion, independently of how much the engine state itself weighs.
//!
//! The file holds exactly one `#[test]` so no concurrent test pollutes the
//! allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use churn_event::{
    run_async_raes_faulty, AsyncRaesConfig, AsyncRaesRecord, BandwidthModel, FaultPlan,
    LatencyModel, TraceMode,
};

/// Live (allocated minus freed) bytes and the high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts live bytes through the system allocator. `realloc` is left to the
/// default alloc–copy–dealloc implementation, so it routes through the
/// counters too.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs one churn-heavy async RAES measurement (repair traffic keeps
/// generating events for the whole horizon) and returns the record plus the
/// allocation high-water mark *above* the pre-run live level.
fn traced_run(trace: TraceMode) -> (AsyncRaesRecord, usize) {
    let cfg = AsyncRaesConfig {
        horizon: 64.0,
        flood_at: Some(8.0),
        trace,
        ..AsyncRaesConfig::new(
            2048,
            3,
            LatencyModel::Exponential { mean: 0.5 },
            BandwidthModel::delaying(4.0),
        )
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let record = run_async_raes_faulty(&cfg, &FaultPlan::none(), 7);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    (record, peak)
}

#[test]
fn bins_mode_never_buffers_the_full_trace() {
    let (full_record, full_peak) = traced_run(TraceMode::Full);
    let events = full_record.trace.len();
    assert!(
        events > 10_000,
        "the guard needs a substantial trace, got {events} events"
    );
    let trace_bytes = events * std::mem::size_of_val(&full_record.trace[0]);
    drop(full_record);

    let (bins_record, bins_peak) = traced_run(TraceMode::Bins);
    let bins = bins_record.bins.as_ref().expect("bins-mode records bins");
    assert!(bins_record.trace.is_empty(), "bins mode buffers no trace");
    assert!(!bins.is_empty(), "the streaming binner saw the run");
    // Both runs are the same deterministic event stream, so the peaks can
    // only differ by the capture: Full holds the whole trace (≥ its len in
    // bytes once fully grown), Bins holds O(horizon) counters. Buffering
    // the trace anywhere in Bins mode would close this gap.
    assert!(
        bins_peak + trace_bytes / 2 < full_peak,
        "streaming bins must undercut full-trace buffering by most of the \
         trace: bins peak {bins_peak} B, full peak {full_peak} B, trace \
         {trace_bytes} B ({events} events)"
    );
}
