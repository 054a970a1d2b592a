//! Readings about the machine the run happened on: a calibration
//! kernel that lets numbers from different runs be normalised, the
//! process's peak resident set, and the core counts in force.

use crate::report::Report;
use gsls_ground::{GroundProgram, Grounder, GrounderOpts, HerbrandOpts};
use gsls_lang::TermStore;
use gsls_wfs::well_founded_model_scratch;
use gsls_workloads::van_gelder_program;
use std::time::Instant;

/// Grounder options for Van Gelder's program at Herbrand depth `depth`.
pub fn van_gelder_opts(depth: u32) -> GrounderOpts {
    GrounderOpts {
        universe: HerbrandOpts {
            max_depth: depth,
            max_terms: 1_000_000,
        },
        ..GrounderOpts::default()
    }
}

/// Grounds the paper's Example 3.1 (Van Gelder's program, function
/// symbols) at Herbrand depth `depth`.
pub fn van_gelder_ground(depth: u32) -> (TermStore, GroundProgram) {
    let mut store = TermStore::new();
    let program = van_gelder_program(&mut store);
    let gp = Grounder::ground_with(&mut store, &program, van_gelder_opts(depth))
        .expect("Van Gelder's program grounds within the term budget");
    (store, gp)
}

/// The calibration kernel: the full-recompute alternating fixpoint on
/// the depth-256 Van Gelder ground program — pure CPU and memory
/// traffic over a fixed input, no I/O, no threads.
pub struct Calibration {
    gp: GroundProgram,
}

impl Calibration {
    /// Prepares the kernel's fixed input.
    pub fn new() -> Calibration {
        Calibration {
            gp: van_gelder_ground(256).1,
        }
    }

    /// Microseconds of the fastest of `reps` kernel runs. The minimum,
    /// not the median: sub-second interference bursts are common here
    /// and would otherwise read as drift, while a sustained slowdown —
    /// the thing drift is meant to flag — slows every repetition.
    pub fn run(&self, reps: usize) -> f64 {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(well_founded_model_scratch(std::hint::black_box(&self.gp)));
                t.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0) as f64
            / 1e3
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MB (`VmHWM` in
/// `/proc/self/status`); 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process right now, in MB (`VmRSS`).
pub fn resident_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Repetitions of the calibration kernel before and after a window.
pub const CALIBRATION_REPS: usize = 100;

/// Reports the `host.*` metrics of a run, and remarks on the
/// calibration drift in either pass (a drift above 10% labels the run
/// noisy in `compare`).
pub fn report(
    report: &mut Report,
    calib_before: f64,
    calib_after: f64,
    resident_mb: f64,
    peak_rss_mb: f64,
) {
    let drift = (calib_after - calib_before).abs() / calib_before * 100.0;
    report.set("host.calib_us", calib_before, CALIBRATION_REPS as u64);
    report.set("host.calib_drift_pct", drift, CALIBRATION_REPS as u64);
    report.set("host.nproc", nproc() as f64, 1);
    report.set("host.par_threads", gsls_par::threads() as f64, 1);
    report.set("host.resident_mb", resident_mb, 1);
    report.set("host.peak_rss_mb", peak_rss_mb, 1);
    report.notes.push(format!(
        "host.calib_us before {calib_before:.1} after {calib_after:.1} (drift {drift:.1}%{}), \
         host.resident_mb {resident_mb:.1}, host.peak_rss_mb {peak_rss_mb:.1}",
        if drift > 10.0 { ", NOISY" } else { "" }
    ));
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
