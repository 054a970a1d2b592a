//! What every workload shares: the run's configuration, the measured
//! window, the base board, scratch directories inside the checkout and
//! the registry scrape.

use crate::ops::Board;
use gsls_core::Session;
use gsls_durable::DurableOpts;
use gsls_ground::GrounderOpts;
use gsls_lang::{Program, TermStore};
use gsls_workloads::win_grid;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUPS: usize = 9;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub traced: bool,
    /// Board side; 200 unless a test shrinks it.
    pub board: usize,
    /// Directory (inside the checkout) for scratch data and traces.
    pub out_dir: PathBuf,
    /// Self-test: flip one oracle verdict, which must fail the run.
    pub corrupt_oracle: bool,
}

impl RunConfig {
    /// The incremental workloads' board.
    pub fn grid(&self) -> Board {
        Board {
            w: self.board,
            h: self.board,
        }
    }

    /// Discarded warm-up before the window: a fifth of it, at most 2 s.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.2).min(2.0))
    }

    /// The window starting now.
    pub fn window(&self) -> Window {
        let warm_end = Instant::now() + self.warmup();
        Window {
            warm_end,
            end: warm_end + Duration::from_secs_f64(self.seconds),
            slice: self
                .traced
                .then(|| Duration::from_secs_f64((self.seconds / 4.0).min(1.0))),
        }
    }
}

/// Warm-up, then the measured window. In a traced pass the window is
/// cut into slices (one second, or a quarter of a shorter window) that
/// alternate between the plain driver and the span-recording one, so
/// tracing overhead is an A/B reading inside one run rather than a
/// difference between two runs.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// End of warm-up; operations started earlier are not recorded.
    pub warm_end: Instant,
    /// End of the window; no operation starts after it.
    pub end: Instant,
    /// Slice length of a traced pass.
    slice: Option<Duration>,
}

/// What to do with an operation starting at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up: run it plain, record nothing.
    Warmup,
    /// Measured, plain driver.
    Plain,
    /// Measured, span-recording driver.
    Traced,
    /// The window is over.
    Done,
}

impl Window {
    /// The phase an operation starting at `now` falls in.
    pub fn phase(&self, now: Instant) -> Phase {
        if now >= self.end {
            Phase::Done
        } else if now < self.warm_end {
            Phase::Warmup
        } else {
            match self.slice {
                Some(slice)
                    if ((now - self.warm_end).as_secs_f64() / slice.as_secs_f64()) as u64 % 2
                        == 1 =>
                {
                    Phase::Traced
                }
                _ => Phase::Plain,
            }
        }
    }
}

/// The base board as a parsed program.
pub fn board_program(board: Board) -> (TermStore, Program) {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, board.w, board.h);
    (store, program)
}

/// The base board as source text, one clause per line.
pub fn board_source(board: Board) -> String {
    let (store, program) = board_program(board);
    program.display(&store)
}

/// Opens a fresh durable session on `dir`, seeded with the board (the
/// seed becomes the epoch-0 checkpoint).
pub fn open_board_session(dir: &Path, board: Board) -> Session {
    let (store, program) = board_program(board);
    Session::open_with_parts(
        dir,
        store,
        program,
        GrounderOpts::default(),
        DurableOpts::default(),
    )
    .expect("a fresh directory seeds a durable board session")
}

/// A per-process scratch root under the run's output directory,
/// removed when dropped. Everything the benchmark writes lives here
/// or next to it — inside the checkout, never in `/tmp`.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `<out_dir>/tmp-<pid>`.
    pub fn new(out_dir: &Path) -> Scratch {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch directory is creatable");
        Scratch { root }
    }

    /// A fresh, empty subdirectory path (not yet created).
    pub fn dir(&self, name: &str) -> PathBuf {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A flattened read of a `gsls-obs` registry, parsed from its
/// Prometheus rendering (the one format both `Client::metrics()` and an
/// in-process `Session` offer): counters by name, histograms as
/// `<name>_sum` / `<name>_count`, quantile samples as
/// `<name>{quantile="0.5"}`.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses Prometheus text.
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// The sample called `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.samples.get(name).copied().unwrap_or(0.0)
    }

    /// Growth of counter `name` since `earlier`.
    pub fn delta(&self, earlier: &Scrape, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }

    /// Mean of histogram `name` over the samples recorded since
    /// `earlier`, in the histogram's own unit, with the sample count.
    pub fn mean_since(&self, earlier: &Scrape, name: &str) -> (f64, u64) {
        let count = self.delta(earlier, &format!("{name}_count"));
        let sum = self.delta(earlier, &format!("{name}_sum"));
        if count > 0.0 {
            (sum / count, count as u64)
        } else {
            (0.0, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_phases_alternate_only_when_traced() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 10.0,
            traced: true,
            board: 16,
            out_dir: PathBuf::from("unused"),
            corrupt_oracle: false,
        };
        assert_eq!(cfg.warmup(), Duration::from_secs(2));
        let w = cfg.window();
        let at = |secs: f64| w.phase(w.warm_end + Duration::from_secs_f64(secs));
        assert_eq!(
            w.phase(w.warm_end - Duration::from_millis(1)),
            Phase::Warmup
        );
        assert_eq!(at(0.5), Phase::Plain);
        assert_eq!(at(1.5), Phase::Traced);
        assert_eq!(at(2.5), Phase::Plain);
        assert_eq!(at(10.0), Phase::Done);
        let plain = RunConfig {
            traced: false,
            ..cfg
        }
        .window();
        assert_eq!(
            plain.phase(plain.warm_end + Duration::from_secs_f64(1.5)),
            Phase::Plain
        );
    }

    #[test]
    fn scrape_reads_counters_and_histogram_means() {
        let before = Scrape::parse(
            "# TYPE gsls_wal_fsyncs counter\ngsls_wal_fsyncs 10\n\
             gsls_commit_refresh{quantile=\"0.5\"} 4000\n\
             gsls_commit_refresh_sum 8000\ngsls_commit_refresh_count 2\n",
        );
        let after = Scrape::parse(
            "gsls_wal_fsyncs 25\ngsls_commit_refresh_sum 20000\ngsls_commit_refresh_count 5\n",
        );
        assert_eq!(after.delta(&before, "gsls_wal_fsyncs"), 15.0);
        assert_eq!(
            after.mean_since(&before, "gsls_commit_refresh"),
            (4000.0, 3)
        );
        assert_eq!(before.get("gsls_commit_refresh{quantile=\"0.5\"}"), 4000.0);
        assert_eq!(after.mean_since(&after, "gsls_commit_refresh"), (0.0, 0));
    }
}
