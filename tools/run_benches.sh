#!/usr/bin/env bash
# Runs every BENCH_JSON-emitting bench and persists its records as
# BENCH_<name>.json at the repo root — one JSON object per line,
# greppable and diffable, so the perf trajectory survives across PRs
# (CI uploads the same files as an artifact).
#
# Usage: tools/run_benches.sh [build_dir]   (default: ./build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

# Benches that emit BENCH_JSON records (bench_util.h PrintJsonRecord).
benches=(
  bench_eval_hotpath
  bench_incremental_stream
  bench_engine
  bench_scenarios
  bench_sharded_stream
  bench_flush_pipeline
  bench_delta_eval
  bench_session_quota
  bench_shard_merge
  bench_wal
  bench_parse
)

status=0
for bench in "${benches[@]}"; do
  binary="$build_dir/$bench"
  if [[ ! -x "$binary" ]]; then
    echo "SKIP $bench: $binary not built" >&2
    status=1
    continue
  fi
  out="$repo_root/BENCH_${bench#bench_}.json"
  echo "== $bench -> ${out#$repo_root/}"
  # Keep the human-readable output on stderr for the CI log; the
  # BENCH_JSON payloads (tag stripped) land in the committed file.
  # Stage through a temp file so a failing bench (an internal CHECK
  # gate, say) or one that emits no records never truncates the
  # committed baseline, and the remaining benches still run.
  tmp="$(mktemp)"
  if ! "$binary" | tee /dev/stderr | { grep '^BENCH_JSON ' || true; } \
      | sed 's/^BENCH_JSON //' > "$tmp"; then
    echo "FAIL $bench: bench exited non-zero; $out left untouched" >&2
    rm -f "$tmp"
    status=1
    continue
  fi
  if [[ ! -s "$tmp" ]]; then
    echo "FAIL $bench: no BENCH_JSON records emitted; $out left untouched" >&2
    rm -f "$tmp"
    status=1
    continue
  fi
  mv "$tmp" "$out"
done

# ---------------------------------------------------------------------------
# Metrics-snapshot JSON: validate the schema the README documents and
# check that two identical runs agree on every field except wall-clock
# timings (keys ending `_ns`, histogram `buckets`).
# ---------------------------------------------------------------------------
cli="$build_dir/entangled_cli"
if [[ ! -x "$cli" ]]; then
  echo "SKIP metrics validation: $cli not built" >&2
  status=1
else
  echo "== entangled_cli metrics: schema + stability"
  snap_a="$(mktemp)"
  snap_b="$(mktemp)"
  if "$cli" metrics --seed 7 --num-queries 64 --sessions 3 \
        --max-pending 4 > "$snap_a" \
     && "$cli" metrics --seed 7 --num-queries 64 --sessions 3 \
        --max-pending 4 > "$snap_b" \
     && python3 - "$snap_a" "$snap_b" <<'PY'
import json, sys

def load(path):
    with open(path) as f:
        return json.load(f)

a, b = load(sys.argv[1]), load(sys.argv[2])

# --- schema: the shape the README documents ---
for doc in (a, b):
    assert set(doc) == {"counters", "gauges", "latency"}, sorted(doc)
    counters = doc["counters"]
    for key in ("engine.submitted", "engine.rejected", "sessions.open",
                "reject.quota_pending", "reject.overloaded",
                "shed.transitions", "shed.active"):
        assert key in counters, f"missing counter {key}"
        assert isinstance(counters[key], int), key
    gauges = doc["gauges"]
    for key in ("pending", "intake_depth", "live_shards", "group_merges",
                "queries_migrated", "queries_retained", "merge_events",
                "merge_migrated_max", "shards"):
        assert key in gauges, f"missing gauge {key}"
    for row in gauges["shards"]:
        assert set(row) == {"slot", "pending", "evaluations"}, row
    latency = doc["latency"]
    for name in ("submit", "submit_batch", "cancel", "flush",
                 "poll_events", "eval"):
        assert name in latency, f"missing histogram {name}"
        hist = latency[name]
        assert set(hist) == {"count", "total_ns", "max_ns", "p50_ns",
                             "p99_ns", "buckets"}, sorted(hist)
        assert sum(n for _, n in hist["buckets"]) == hist["count"], name

# --- stability: drop timing-only fields, require exact equality ---
def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items()
                if not k.endswith("_ns") and k != "buckets"}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node

sa, sb = strip(a), strip(b)
assert sa == sb, "metrics snapshot is not stable across identical runs"
# The quota-armed profile must actually exercise the reject counters.
assert a["counters"]["reject.quota_pending"] > 0, "no quota bounces"
print("metrics snapshot: schema OK, stable across runs")
PY
  then
    :
  else
    echo "FAIL entangled_cli metrics: schema/stability check failed" >&2
    status=1
  fi
  rm -f "$snap_a" "$snap_b"
fi

# ---------------------------------------------------------------------------
# Durability counters: a --record run must surface the wal.*/snapshot.*
# counters in the metrics snapshot, and replaying the recorded
# directory must surface non-zero recovery.* counters.  A second
# replay, on the sharded engine, starts from the snapshot the first
# one rotated into: it replays no event, resumes that snapshot's
# pending queries under their recorded ids, and must hold as many.
# ---------------------------------------------------------------------------
if [[ -x "$cli" ]]; then
  echo "== entangled_cli --record/replay: durability counter schema"
  rec_root="$(mktemp -d)"
  snap_rec="$(mktemp)"
  snap_replay="$(mktemp)"
  snap_again="$(mktemp)"
  if "$cli" metrics --seed 7 --num-queries 64 --sessions 3 \
        --record "$rec_root/wal" > "$snap_rec" \
     && "$cli" replay "$rec_root/wal" --quiet > "$snap_replay" \
     && "$cli" replay "$rec_root/wal" --sharded --quiet > "$snap_again" \
     && python3 - "$snap_rec" "$snap_replay" "$snap_again" <<'PY'
import json, sys

def load(path):
    with open(path) as f:
        return json.load(f)

recorded, replayed, again = (load(path) for path in sys.argv[1:4])
keys = ("wal.appended_records", "wal.bytes", "wal.fsyncs",
        "snapshot.count", "recovery.replayed_events",
        "recovery.truncated_bytes")
for doc, label in ((recorded, "recorded"), (replayed, "replayed")):
    counters = doc["counters"]
    for key in keys:
        assert key in counters, f"{label}: missing counter {key}"
        assert isinstance(counters[key], int), f"{label}: {key}"
rc = recorded["counters"]
assert rc["wal.appended_records"] > 0, "recording logged nothing"
assert rc["wal.bytes"] > rc["wal.appended_records"], "framing overhead?"
assert rc["snapshot.count"] >= 1, "no genesis snapshot"
assert rc["recovery.replayed_events"] == 0, "fresh recording replayed?"
pc = replayed["counters"]
assert pc["recovery.replayed_events"] == rc["wal.appended_records"], (
    "replay re-applied %d of %d recorded events"
    % (pc["recovery.replayed_events"], rc["wal.appended_records"]))
pending = replayed["gauges"]["pending"]
assert pending > 0, "the replayed snapshot holds no pending query"
ac = again["counters"]
assert ac["recovery.replayed_events"] == 0, (
    "second replay re-applied %d events" % ac["recovery.replayed_events"])
assert again["gauges"]["pending"] == pending, (
    "second replay holds %d pending, first %d"
    % (again["gauges"]["pending"], pending))
print("durability counters: schema OK, replay re-applied "
      f'{pc["recovery.replayed_events"]} events; the sharded replay of '
      f'its snapshot resumed {pending} pending')
PY
  then
    :
  else
    echo "FAIL entangled_cli --record/replay: durability counters" >&2
    status=1
  fi
  rm -rf "$rec_root"
  rm -f "$snap_rec" "$snap_replay" "$snap_again"
fi
exit "$status"
