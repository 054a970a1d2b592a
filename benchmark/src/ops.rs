//! Seeded operation streams. Everything the engine receives — commit
//! text and query text — is generated here from `--seed`; the engine
//! never sees the seed itself.
//!
//! Operation classes follow a fixed 20-operation cycle with the stated
//! shares, and keys are drawn uniformly (toggles from a fixed set of
//! edges): the seed changes the keys, never the mix. Every stretch of
//! every run therefore carries the same proportion of cheap and
//! expensive operations, and a rate measured over one stretch does not
//! depend on how many enumerations a random draw happened to put in it.

use std::fmt::Write as _;

/// SplitMix64, the same generator `gsls-workloads` uses for its random
/// programs (that one is crate-private).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `w × h` win/move grid every incremental workload runs on
/// (`gsls_workloads::win_grid`): positions are `n0 … n(w·h−1)`,
/// numbered row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Board {
    /// Columns.
    pub w: usize,
    /// Rows.
    pub h: usize,
}

impl Board {
    /// Number of grid positions (draw pockets excluded).
    pub fn positions(&self) -> usize {
        self.w * self.h
    }

    /// The fixed set of existing board edges the `toggle` class
    /// retracts and re-asserts: up to 64 right-moves spread evenly over
    /// the top quarter of the rows, so every retraction cone (the
    /// positions up and to the left of the edge) stays bounded and the
    /// set — hence the cost distribution — is the same for every seed.
    pub fn toggle_edges(&self) -> Vec<(usize, usize)> {
        let rows = (self.h / 4).max(1);
        let per_row = self.w - 1;
        let total = rows * per_row;
        let n = total.min(64);
        (0..n)
            .map(|e| {
                let slot = e * total / n;
                let (i, j) = (slot % per_row, slot / per_row);
                (j * self.w + i, j * self.w + i + 1)
            })
            .collect()
    }
}

/// The three commit classes of the writer stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteClass {
    /// Assert one fresh leaf edge `move(w<k>, n<j>)`.
    Insert,
    /// Retract, or re-assert, one of the board's toggle edges.
    Toggle,
    /// Assert eight fresh leaf edges in one commit.
    Batch8,
}

impl WriteClass {
    /// All classes, in reporting order.
    pub const ALL: [WriteClass; 3] = [WriteClass::Insert, WriteClass::Toggle, WriteClass::Batch8];

    /// Lower-case name used in metric names and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            WriteClass::Insert => "insert",
            WriteClass::Toggle => "toggle",
            WriteClass::Batch8 => "batch8",
        }
    }

    /// The per-layer metric the class's commit-call median is reported
    /// under.
    pub fn commit_metric(self) -> &'static str {
        match self {
            WriteClass::Insert => "core.commit_insert_ms",
            WriteClass::Toggle => "core.commit_toggle_ms",
            WriteClass::Batch8 => "core.commit_batch8_ms",
        }
    }
}

/// One single-batch commit, as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Which class the op belongs to.
    pub class: WriteClass,
    /// Facts to assert (program text; may be empty).
    pub asserts: String,
    /// Facts to retract (program text; may be empty).
    pub retracts: String,
    /// A ground goal whose truth the commit decides, for the
    /// read-your-writes check.
    pub probe: String,
    /// Whether `probe` holds once the commit is acknowledged.
    pub probe_holds: bool,
}

/// One cycle of the writer stream: 9 inserts, 9 toggles, 2 batch8.
const WRITE_CYCLE: [WriteClass; 20] = {
    use WriteClass::{Batch8 as B, Insert as I, Toggle as T};
    [I, T, I, T, I, T, I, T, I, B, T, I, T, I, T, I, T, I, T, B]
};

/// One cycle of the reader stream: 14 points, 5 joins, 1 enumeration.
const READ_CYCLE: [ReadClass; 20] = {
    use ReadClass::{Enum as E, Join as J, Point as P};
    [P, P, P, J, P, P, P, J, P, E, P, J, P, P, P, J, P, P, P, J]
};

/// The writer's operation stream: 45% insert, 45% toggle, 10% batch8.
/// It also tracks the source fact set the stream has produced so far,
/// which is what the end-of-run oracle is rebuilt from.
#[derive(Debug, Clone)]
pub struct WriterStream {
    rng: SplitMix64,
    board: Board,
    toggles: Vec<(usize, usize)>,
    /// `retracted[e]` — whether toggle edge `e` is currently retracted.
    retracted: Vec<bool>,
    /// Every fresh edge generated so far, as `(k, j)` of `move(w<k>, n<j>)`.
    fresh: Vec<(u64, usize)>,
    /// Operations generated so far.
    issued: usize,
}

impl WriterStream {
    /// The stream for `seed` on `board`.
    pub fn new(seed: u64, board: Board) -> WriterStream {
        let toggles = board.toggle_edges();
        WriterStream {
            rng: SplitMix64::new(seed),
            board,
            retracted: vec![false; toggles.len()],
            toggles,
            fresh: Vec::new(),
            issued: 0,
        }
    }

    fn fresh_edge(&mut self, out: &mut String) -> (u64, usize) {
        let k = self.fresh.len() as u64;
        let j = self.rng.below(self.board.positions());
        self.fresh.push((k, j));
        let _ = write!(out, "move(w{k}, n{j}).");
        (k, j)
    }

    /// The next commit.
    pub fn next_op(&mut self) -> WriteOp {
        let class = WRITE_CYCLE[self.issued % WRITE_CYCLE.len()];
        self.issued += 1;
        if class == WriteClass::Insert {
            let mut asserts = String::new();
            let (k, j) = self.fresh_edge(&mut asserts);
            WriteOp {
                class: WriteClass::Insert,
                asserts,
                retracts: String::new(),
                probe: format!("?- move(w{k}, n{j})."),
                probe_holds: true,
            }
        } else if class == WriteClass::Toggle {
            let e = self.rng.below(self.toggles.len());
            let (a, b) = self.toggles[e];
            let fact = format!("move(n{a}, n{b}).");
            let was_retracted = self.retracted[e];
            self.retracted[e] = !was_retracted;
            let (asserts, retracts) = if was_retracted {
                (fact, String::new())
            } else {
                (String::new(), fact)
            };
            WriteOp {
                class: WriteClass::Toggle,
                asserts,
                retracts,
                probe: format!("?- move(n{a}, n{b})."),
                probe_holds: was_retracted,
            }
        } else {
            let mut asserts = String::new();
            let mut last = (0, 0);
            for i in 0..8 {
                if i > 0 {
                    asserts.push(' ');
                }
                last = self.fresh_edge(&mut asserts);
            }
            WriteOp {
                class: WriteClass::Batch8,
                asserts,
                retracts: String::new(),
                probe: format!("?- move(w{}, n{}).", last.0, last.1),
                probe_holds: true,
            }
        }
    }

    /// The changes this stream has made to the base board, as the
    /// text of the fresh facts plus the toggle edges that are currently
    /// retracted — the oracle's view of "the final source fact set".
    pub fn delta(&self) -> BoardDelta {
        let mut added = String::new();
        for &(k, j) in &self.fresh {
            let _ = writeln!(added, "move(w{k}, n{j}).");
        }
        let removed = self
            .toggles
            .iter()
            .zip(&self.retracted)
            .filter(|(_, &r)| r)
            .map(|(&(a, b), _)| format!("move(n{a}, n{b})."))
            .collect();
        BoardDelta { added, removed }
    }
}

/// What a [`WriterStream`] changed relative to the base board.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoardDelta {
    /// Fresh facts, one per line.
    pub added: String,
    /// Base facts currently retracted, each rendered `move(n<a>, n<b>).`.
    pub removed: Vec<String>,
}

/// The three query classes of the reader stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// `?- win(n<k>).`
    Point,
    /// `?- move(n<k>, Y), ~win(Y).`
    Join,
    /// `?- win(X).`
    Enum,
}

impl ReadClass {
    /// All classes, in reporting order.
    pub const ALL: [ReadClass; 3] = [ReadClass::Point, ReadClass::Join, ReadClass::Enum];

    /// Lower-case name used in metric names and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Point => "point",
            ReadClass::Join => "join",
            ReadClass::Enum => "enum",
        }
    }
}

/// One query, as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOp {
    /// Which class the op belongs to.
    pub class: ReadClass,
    /// The goal text.
    pub goal: String,
    /// The position `k` the goal names (0 for `Enum`).
    pub key: usize,
}

/// The reader's operation stream: 70% point, 25% join, 5% enum, keys
/// uniform over the grid positions.
#[derive(Debug, Clone)]
pub struct ReaderStream {
    rng: SplitMix64,
    board: Board,
    /// Operations generated so far.
    issued: usize,
}

impl ReaderStream {
    /// The stream for `seed` on `board`.
    pub fn new(seed: u64, board: Board) -> ReaderStream {
        ReaderStream {
            // Decorrelated from the writer stream of the same seed.
            rng: SplitMix64::new(seed ^ 0x5ead_e25e_ed00_0001),
            board,
            issued: 0,
        }
    }

    /// The next query.
    pub fn next_op(&mut self) -> ReadOp {
        let class = READ_CYCLE[self.issued % READ_CYCLE.len()];
        self.issued += 1;
        if class == ReadClass::Point {
            let key = self.rng.below(self.board.positions());
            ReadOp {
                class: ReadClass::Point,
                goal: format!("?- win(n{key})."),
                key,
            }
        } else if class == ReadClass::Join {
            let key = self.rng.below(self.board.positions());
            ReadOp {
                class: ReadClass::Join,
                goal: format!("?- move(n{key}, Y), ~win(Y)."),
                key,
            }
        } else {
            ReadOp {
                class: ReadClass::Enum,
                goal: "?- win(X).".to_owned(),
                key: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writer_text(seed: u64, n: usize) -> String {
        let mut s = WriterStream::new(seed, Board { w: 16, h: 16 });
        let mut out = String::new();
        for _ in 0..n {
            let op = s.next_op();
            let _ = writeln!(
                out,
                "{} +[{}] -[{}] {} {}",
                op.class.name(),
                op.asserts,
                op.retracts,
                op.probe,
                op.probe_holds
            );
        }
        out
    }

    fn reader_text(seed: u64, n: usize) -> String {
        let mut s = ReaderStream::new(seed, Board { w: 16, h: 16 });
        (0..n).map(|_| s.next_op().goal + "\n").collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(writer_text(7, 500), writer_text(7, 500));
        assert_ne!(writer_text(7, 500), writer_text(8, 500));
        assert_eq!(reader_text(7, 500), reader_text(7, 500));
        assert_ne!(reader_text(7, 500), reader_text(8, 500));
    }

    #[test]
    fn mixes_have_the_stated_shares_in_every_cycle() {
        let mut w = WriterStream::new(1, Board { w: 200, h: 200 });
        let mut r = ReaderStream::new(1, Board { w: 200, h: 200 });
        for _ in 0..50 {
            let (mut writes, mut reads) = ([0usize; 3], [0usize; 3]);
            for _ in 0..20 {
                writes[w.next_op().class as usize] += 1;
                reads[r.next_op().class as usize] += 1;
            }
            assert_eq!(writes, [9, 9, 2], "insert, toggle, batch8");
            assert_eq!(reads, [14, 5, 1], "point, join, enum");
        }
    }

    #[test]
    fn toggle_edges_are_distinct_existing_right_moves() {
        for board in [
            Board { w: 200, h: 200 },
            Board { w: 16, h: 16 },
            Board { w: 4, h: 4 },
        ] {
            let edges = board.toggle_edges();
            assert!(!edges.is_empty() && edges.len() <= 64);
            let mut seen = edges.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), edges.len(), "distinct on {board:?}");
            for (a, b) in edges {
                assert_eq!(b, a + 1);
                assert!(a % board.w < board.w - 1, "a right-move inside a row");
                assert!(a / board.w < (board.h / 4).max(1), "top quarter");
            }
        }
    }

    #[test]
    fn toggles_alternate_and_the_delta_tracks_them() {
        let mut w = WriterStream::new(3, Board { w: 16, h: 16 });
        let mut live: std::collections::BTreeMap<String, bool> = Default::default();
        let mut fresh = 0;
        for _ in 0..2_000 {
            let op = w.next_op();
            match op.class {
                WriteClass::Toggle => {
                    let retract = !op.retracts.is_empty();
                    assert_ne!(retract, !op.asserts.is_empty());
                    let fact = if retract { &op.retracts } else { &op.asserts };
                    let present = live.entry(fact.clone()).or_insert(true);
                    assert_eq!(*present, retract, "retract only what is present");
                    *present = !retract;
                    assert_eq!(op.probe_holds, !retract);
                }
                WriteClass::Insert => fresh += 1,
                WriteClass::Batch8 => fresh += 8,
            }
        }
        let delta = w.delta();
        assert_eq!(delta.added.lines().count(), fresh);
        let mut expect: Vec<String> = live
            .iter()
            .filter(|(_, &present)| !present)
            .map(|(f, _)| f.clone())
            .collect();
        let mut got = delta.removed.clone();
        expect.sort();
        got.sort();
        assert_eq!(got, expect);
    }
}
