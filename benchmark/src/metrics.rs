//! The benchmark's vocabulary: workloads, end-to-end metrics (with the
//! bound each may worsen by) and per-layer metrics. `BENCHMARK.json`
//! at the repository root carries the same names; a test pins the two
//! together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The four workloads. Each binds the three operation roles the
/// end-to-end metrics are named after — `main`, `side`, `heavy` — to its
/// own operation classes (see the README's role table).
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serve_mixed",
        why: "Writer and reader connection on one served durable 200x200 session: main=commit ack, side=join query beside writes, heavy=win(X) enumeration; the whole client path under contention.",
    },
    WorkloadSpec {
        name: "serve_read",
        why: "Same server, no writer: main=point query, side=join query, heavy=win(X) enumeration on a never-republished snapshot; commit-side and publish-side changes must read no change here.",
    },
    WorkloadSpec {
        name: "embed_commit",
        why: "In-process durable Session, one thread: main=commit call, side=join on the fresh snapshot, heavy=rolled-back commit; the engine layers of serve_mixed without framing, queue or thread handoff.",
    },
    WorkloadSpec {
        name: "cold_build",
        why: "Source text to well-founded model, nothing warm: main=geomean of four program builds, side=crash reopen of checkpoint+WAL tail, heavy=200x200 board from text; bypasses every incremental path.",
    },
];

/// An end-to-end metric: reported by every workload in an untraced run
/// and gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` (and the PR driver) calls it a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "main_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "main_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "side_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "heavy_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload in a traced run
/// (0 where the workload does not exercise the layer), never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<what>`; the layer is a crate name, or `host`, `trace`,
    /// `build` for the harness's own readings.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, in reporting order.
pub const PER_LAYER: [PerLayer; 95] = [
    // lang: parser and wire codec.
    lower("lang.parse_fact_us", "us"),
    lower("lang.parse_program_ms", "ms"),
    lower("lang.proto_request_us", "us"),
    lower("lang.proto_response_us", "us"),
    lower("lang.proto_response_enum_ms", "ms"),
    lower("lang.request_bytes_commit", "B"),
    lower("lang.request_bytes_query", "B"),
    lower("lang.response_bytes_commit", "B"),
    lower("lang.response_bytes_point", "B"),
    lower("lang.response_bytes_enum", "B"),
    // server: framing, the client-observed wait, and what no replayed
    // layer accounts for.
    lower("server.frame_small_us", "us"),
    lower("server.frame_enum_us", "us"),
    lower("server.wait_commit_ms", "ms"),
    lower("server.wait_point_us", "us"),
    lower("server.wait_join_us", "us"),
    lower("server.wait_enum_ms", "ms"),
    lower("server.unattributed_commit_ms", "ms"),
    lower("server.unattributed_point_us", "us"),
    lower("server.commit_p90_ms", "ms"),
    lower("server.commit_p99_ms", "ms"),
    lower("server.commit_max_ms", "ms"),
    lower("server.query_point_p50_us", "us"),
    lower("server.query_point_p99_ms", "ms"),
    lower("server.query_join_p99_ms", "ms"),
    lower("server.query_enum_p99_ms", "ms"),
    higher("server.queries_per_s", "1/s"),
    higher("server.records_per_fsync", "ratio"),
    lower("server.errors", "count"),
    // core: Session commit, snapshot and query building blocks.
    lower("core.commit_insert_ms", "ms"),
    lower("core.commit_toggle_ms", "ms"),
    lower("core.commit_batch8_ms", "ms"),
    lower("core.commit_p90_ms", "ms"),
    lower("core.phase_validate_us", "us"),
    lower("core.phase_journal_us", "us"),
    lower("core.phase_ground_us", "us"),
    lower("core.phase_refresh_us", "us"),
    lower("core.phase_index_us", "us"),
    lower("core.retraction_cone_p50", "count"),
    lower("core.snapshot_ms", "ms"),
    lower("core.prepare_point_us", "us"),
    lower("core.prepare_join_us", "us"),
    lower("core.execute_point_us", "us"),
    lower("core.execute_join_us", "us"),
    lower("core.execute_enum_ms", "ms"),
    lower("core.render_enum_ms", "ms"),
    lower("core.read_ns", "ns"),
    lower("core.scans_per_query", "ratio"),
    lower("core.point_lookups_per_query", "ratio"),
    lower("core.rebuild_ms", "ms"),
    lower("core.global_tree_us", "us"),
    // analysis, ground, wfs: the batch path, program by program.
    lower("analysis.grid200_ms", "ms"),
    lower("ground.grid200_ms", "ms"),
    lower("ground.rand50k_ms", "ms"),
    lower("ground.reach150_ms", "ms"),
    lower("ground.vg1024_ms", "ms"),
    lower("ground.grid200_seed_ms", "ms"),
    lower("ground.grid200_plan_ms", "ms"),
    lower("ground.grid200_join_ms", "ms"),
    lower("ground.grid200_finalize_ms", "ms"),
    lower("ground.atoms", "count"),
    lower("ground.clauses", "count"),
    lower("ground.join_candidates", "count"),
    lower("ground.index_probes", "count"),
    lower("wfs.grid200_ms", "ms"),
    lower("wfs.rand50k_ms", "ms"),
    lower("wfs.reach150_ms", "ms"),
    lower("wfs.vg1024_ms", "ms"),
    lower("wfs.reduct_calls", "count"),
    lower("wfs.clause_checks", "count"),
    // durable: WAL, checkpoints, recovery.
    lower("durable.append_sync_us", "us"),
    lower("durable.append_unsynced_us", "us"),
    lower("durable.sync_us", "us"),
    lower("durable.wal_bytes_per_commit", "B"),
    lower("durable.fsyncs_per_commit", "ratio"),
    lower("durable.checkpoints", "count"),
    lower("durable.checkpoint_ms", "ms"),
    lower("durable.checkpoint_bytes", "B"),
    lower("durable.checkpoint_stall_ms", "ms"),
    lower("durable.open_ms", "ms"),
    lower("durable.replay_ms_per_record", "ms"),
    lower("durable.disk_bytes_per_source_byte", "ratio"),
    // build: whole-operation medians that cold_build's geomean folds.
    lower("build.grid200_ms", "ms"),
    lower("build.rand50k_ms", "ms"),
    lower("build.reach150_ms", "ms"),
    lower("build.vg1024_ms", "ms"),
    lower("build.p90_ms", "ms"),
    lower("build.reopen_p90_ms", "ms"),
    // host and trace: validity of the run itself.
    lower("host.calib_us", "us"),
    lower("host.calib_drift_pct", "%"),
    higher("host.nproc", "count"),
    higher("host.par_threads", "count"),
    lower("host.resident_mb", "MB"),
    lower("host.peak_rss_mb", "MB"),
    lower("trace.overhead_pct", "%"),
    higher("trace.spans", "count"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the PR driver reads; this list is what
    /// the harness prints and `compare` gates with. They must agree.
    #[test]
    fn benchmark_json_carries_the_same_names() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_owned();
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }
}
