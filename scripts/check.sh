#!/usr/bin/env bash
# Tooling gate: formatting + lints (with -D warnings) + build + tests.
# CI and pre-PR runs should both use this single entry point.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --doc (the Session quickstart doctest is the API contract)"
cargo test -q --doc

echo "==> benchmark/ harness tests (its own workspace: the root build neither"
echo "    compiles nor notices it, so API drift must fail here, not at the next run)"
(cd benchmark && cargo test -q)

echo "==> gsls-lint gate (examples + workload generators deny-clean)"
cargo run --release --bin gsls-lint -- \
  examples/lp/win_game.lp examples/lp/reach.lp --workloads

echo "==> gsls-lint defect corpus (must be rejected, exit 1)"
if cargo run --release --bin gsls-lint -- examples/lp/defects.lp; then
  echo "gsls-lint failed to reject examples/lp/defects.lp" >&2
  exit 1
fi

echo "==> grounding diff suite (planned == naive on the four workloads and on"
echo "    random programs; kernel fed in batches == batch == naive)"
cargo test --release -q --test grounding_diff

echo "==> session maintenance property with 2 snapshot readers (session ≡ rebuild)"
GSLS_THREADS=2 cargo test --release -q --test incremental session_

echo "==> cone-restart refresh gate (refresh ≡ scratch on append/switch/undo walks,"
echo "    the named restart traps, exact per-commit work bounds), snapshot isolation"
echo "    (retained snapshots ≡ their epoch's rebuild; concurrent readers; rollback +"
echo "    recover; runs of different length) and the publish copy gate, the query"
echo "    candidate gate (a bound-argument join tries its answers, not its predicate),"
echo "    indexed plans ≡ scan plans, the rollback gates (truncate ≡ rebuild at"
echo "    every guard check and for the commits after; a snapshot inside a rolled-back"
echo "    group; rollback work bounded by the delta), the read-path gate (text queries"
echo "    intern nothing into the session), the late-name gate (a plan matches names"
echo "    a later commit introduces) and the prepare walk (prepared once ≡ prepared"
echo "    fresh, on the session, a new snapshot and the first one)"
cargo test --release -q -p gsls-wfs refresh_
cargo test --release -q -p gsls-core -- indexed_ read_path_ prepared_query_
cargo test --release -q --test incremental -- \
  refresh_ snapshot_isolation publish_copies join_candidates rollback_ prepare_

echo "==> durability recovery gate (the codec and CRC-32 as they ship, optimised;"
echo "    one_fsync_per_committed_batch_none_per_rolled_back_one,"
echo "    a_cut_of_several_records_keeps_the_record_count; crash-injection seed sweep)"
cargo test --release -q -p gsls-durable
cargo test --release -q --test durability
for seed in 3 17 101; do
  echo "    GSLS_FAULT_SEED=$seed"
  GSLS_FAULT_SEED=$seed cargo test --release -q --test durability \
    fault_injected_crash_recovers_a_commit_prefix
done

echo "==> governance gate (interrupt-at-every-phase, panic-at-every-stage,"
echo "    cross-thread cancel)"
cargo test --release -q --test governance
for seed in 7 43 191; do
  echo "    GSLS_GOVERN_SEED=$seed"
  GSLS_GOVERN_SEED=$seed cargo test --release -q --test governance \
    cancel_interleaved_walk_matches_rebuild
done

echo "==> observability gate (counters, phase histograms, bounded ring,"
echo "    trip forensics)"
cargo test --release -q --test observability

echo "==> gsls-obs CLI smoke (commit + query must land in the registry)"
cargo run --release --bin gsls-obs -- \
  examples/lp/win_game.lp --assert "move(obs1, obs2)." --query "?- win(X)." --json \
  | grep -q '"commit.refresh"'

echo "==> observability overhead gate (instrumented commit <= 3% vs disabled)"
cargo test --release -q --test observability -- --ignored obs_overhead

echo "==> server suite (framing fuzz, group commit, ungraceful clients,"
echo "    storm vs oracle, drain with a query in flight, idle reap"
echo "    (idle_connections_are_reaped_and_active_ones_kept), the drain ending"
echo "    blocked reads (drain_unblocks_waiting_connections), the drain with commits"
echo "    in flight (drain_with_commits_in_flight_loses_no_ack), a malformed commit"
echo "    answered before any session binds (malformed_commit_binds_no_session), a"
echo "    reply too large for a frame cut to a partial answer set"
echo "    (oversized_reply_is_cut_to_a_frame_and_the_connection_kept), group commit"
echo "    with no timer: a lone writer never held while two or four writers share"
echo "    fsyncs (a_lone_writer_commits_at_once_and_writers_still_group), acks in epoch"
echo "    order under 1, 2 and 4 writers"
echo "    (acked_epochs_are_gapless_under_one_two_and_four_writers))"
cargo test --release -q --test server

echo "==> gsls-serve/gsls-client live smoke (commit, query, scrape, out of"
echo "    descriptors, shutdown)"
cargo build --release -p gsls-serve --bins
serve_dir="$(mktemp -d)"
serve_log="$serve_dir/server.log"
# Created here: the server's redirect may open it after the first poll.
: >"$serve_log"
target/release/gsls-serve --addr 127.0.0.1:0 --data-dir "$serve_dir/data" \
  >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_dir"' EXIT
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^gsls-serve listening on //p' "$serve_log" | head -n1)"
  [ -n "$serve_addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log" >&2; exit 1; }
  sleep 0.1
done
[ -n "$serve_addr" ] || { echo "gsls-serve never reported its address" >&2; exit 1; }
client() { target/release/gsls-client --addr "$serve_addr" "$@"; }
client commit "move(a, b). move(b, a). win(X) :- move(X, Y), ~win(Y)."
client assert "move(b, c)."
client query "?- win(X)." | grep -q "true"
client metrics | grep -q "^gsls_wal_group_syncs"
# Out of descriptors, a connection stays queued and every accept fails:
# the accept thread must back off, not spin. Cap the server's soft limit
# at its lowest free descriptor, connect once, and read its CPU time.
free_fd=0
while [ -e "/proc/$serve_pid/fd/$free_fd" ]; do free_fd=$((free_fd + 1)); done
nofile="$(prlimit --pid "$serve_pid" --nofile --output SOFT --noheadings | tr -d ' ')"
prlimit --pid "$serve_pid" --nofile="$free_fd:"
serve_cpu_ms() { sed 's/^.*) //' "/proc/$serve_pid/stat" | awk '{ print ($12 + $13) * 10 }'; }
exec 9<>"/dev/tcp/${serve_addr%:*}/${serve_addr##*:}"
sleep 0.2
cpu_before="$(serve_cpu_ms)"
sleep 1
cpu_ms=$(($(serve_cpu_ms) - cpu_before))
exec 9>&-
prlimit --pid "$serve_pid" --nofile="$nofile:"
if [ "$cpu_ms" -gt 200 ]; then
  echo "gsls-serve used ${cpu_ms} ms of CPU in 1 s out of descriptors" >&2
  exit 1
fi
client shutdown
# The drain must finish on its own: a hang fails the gate, not CI.
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "gsls-serve still running 10s after shutdown" >&2
  exit 1
fi
wait "$serve_pid"
trap - EXIT
rm -rf "$serve_dir"

echo "check.sh: all gates passed"
