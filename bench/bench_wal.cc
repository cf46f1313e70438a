// Durability overhead and recovery-tail economics of the write-ahead
// log (storage/durable_service.h).
//
// Series 1 — admission throughput: submissions/sec of a seeded
// generator stream through the durability decorator under each fsync
// policy, against the bare engine (no WAL at all).  evaluate_every=0
// keeps solver cost out of the loop: the gap is logging + (policy-
// dependent) fsync(2).  kNone should track the baseline closely,
// kEveryRecord pays one fsync per admitted event — the classic
// durability-horizon/throughput trade the policy enum documents.
//
// Series 2 — recovery replay length: the same stream recorded once
// with only the genesis snapshot (recovery replays the whole log) and
// once with periodic snapshot rotation (recovery replays only the tail
// past the newest snapshot).  The counts are deterministic, so the
// bench gates the whole point of snapshots outright: the full-log
// replay must re-apply at least 10x more events than snapshot + tail.
//
// Series 3 — bytes written per rotation: the stream runs with periodic
// rotation on two databases, one sized like the end-to-end benchmark's
// (2 relations x 82,168 rows, arity 2) and this bench's default one.
// Each rotation writes a snapshot and the fact segments of its epoch;
// their sizes are summed per epoch from the store directory.  These
// streams evaluate on every arrival, as the end-to-end benchmark's
// durable workload does.  On the large database the traffic is shaped
// like that workload's too: every member reuses its group's body atom,
// and each group's members arrive back to back, so a snapshot carries a
// live service's pending state.  The default stream keeps the
// generator's order, which scatters every group over the whole stream
// and leaves about half of it pending.  The facts never change after
// genesis, so the gate is exact: no rotation after genesis writes a fact
// segment, and on the large database each rotation's snapshot is under
// 1% of the genesis fact bytes.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "system/engine.h"
#include "workload/generator.h"

namespace entangled {
namespace {

constexpr size_t kNumQueries = 600;
constexpr uint64_t kSnapshotEvery = 40;
constexpr int kReps = 2;
/// Rows per relation of the large database: the paper's 82,168-row
/// Slashdot table, as in the end-to-end benchmark.
constexpr size_t kPaperRows = 82168;

/// mkdtemp-backed scratch directory, recursively removed on scope exit
/// (each timed run wants a fresh genesis, not an append to the last).
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_bench_wal_XXXXXX";
    char* made = mkdtemp(tmpl);
    ENTANGLED_CHECK(made != nullptr) << "mkdtemp failed";
    path_ = made;
  }
  ~TempDir() {
    DIR* dir = opendir(path_.c_str());
    if (dir != nullptr) {
      while (dirent* entry = readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct ReplayCounters {
  size_t submitted = 0;
  WalStats wal;
};

/// Streams the generated events through `service` (the bare engine or
/// the decorator).  Cadence toggles are skipped — they would
/// reintroduce solver cost into what is an admission/logging bench.
size_t StreamEvents(CoordinationService* service,
                    const std::vector<WorkloadEvent>& events) {
  size_t submitted = 0;
  for (const WorkloadEvent& event : events) {
    switch (event.kind) {
      case WorkloadEvent::Kind::kSubmit: {
        auto id = service->Submit(event.texts.front());
        ENTANGLED_CHECK(id.ok()) << id.status().ToString();
        ++submitted;
        break;
      }
      case WorkloadEvent::Kind::kSubmitBatch: {
        auto ids = service->SubmitBatch(event.texts);
        ENTANGLED_CHECK(ids.ok()) << ids.status().ToString();
        submitted += event.texts.size();
        break;
      }
      case WorkloadEvent::Kind::kCancel: {
        const std::vector<QueryId> pending = service->PendingQueries();
        if (!pending.empty()) {
          service->Cancel(pending[event.cancel_rank % pending.size()]);
        }
        break;
      }
      case WorkloadEvent::Kind::kSetEvaluateEvery:
        break;
      case WorkloadEvent::Kind::kFlush:
        service->Flush();
        break;
    }
  }
  service->Flush();
  return submitted;
}

/// One timed pass through a fresh durability stack; returns the
/// lifetime WAL counters of the run.
ReplayCounters ReplayDurable(const Database& db,
                             const std::vector<WorkloadEvent>& events,
                             FsyncPolicy policy,
                             uint64_t snapshot_every_events) {
  TempDir dir;
  EngineOptions engine_options;
  engine_options.evaluate_every = 0;
  CoordinationEngine engine(&db, engine_options);
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.fsync = policy;
  durability.snapshot_every_events = snapshot_every_events;
  durability.initial_evaluate_every = 0;
  auto durable = DurableCoordinationService::Create(&engine, &db, durability);
  ENTANGLED_CHECK(durable.ok()) << durable.status().ToString();
  ReplayCounters counters;
  counters.submitted = StreamEvents(durable->get(), events);
  counters.wal = (*durable)->wal_stats();
  return counters;
}

/// Records the stream into `dir`, crashes (scope exit), rehydrates,
/// and returns how many WAL records recovery had to re-apply.
uint64_t RecoveryReplayLength(const Database& db,
                              const std::vector<WorkloadEvent>& events,
                              const std::string& dir,
                              uint64_t snapshot_every_events) {
  {
    EngineOptions engine_options;
    engine_options.evaluate_every = 0;
    CoordinationEngine engine(&db, engine_options);
    DurabilityOptions durability;
    durability.dir = dir;
    durability.fsync = FsyncPolicy::kNone;
    durability.snapshot_every_events = snapshot_every_events;
    durability.initial_evaluate_every = 0;
    auto durable =
        DurableCoordinationService::Create(&engine, &db, durability);
    ENTANGLED_CHECK(durable.ok()) << durable.status().ToString();
    StreamEvents(durable->get(), events);
  }  // crash: the stack dies with the log on disk

  auto state = ReadDurableState(dir);
  ENTANGLED_CHECK(state.ok()) << state.status().ToString();
  ENTANGLED_CHECK(!state->report.corruption_detected)
      << state->report.corruption_detail;
  Database recovered_db;
  ENTANGLED_CHECK(
      BuildDatabaseFromSnapshot(state->snapshot, &recovered_db).ok());
  EngineOptions engine_options;
  engine_options.evaluate_every = 0;
  CoordinationEngine engine(&recovered_db, engine_options);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  durability.initial_evaluate_every = 0;
  auto durable =
      DurableCoordinationService::Create(&engine, &recovered_db, durability);
  ENTANGLED_CHECK(durable.ok()) << durable.status().ToString();
  Status recovered = (*durable)->Recover(std::move(*state), nullptr);
  ENTANGLED_CHECK(recovered.ok()) << recovered.ToString();
  const RecoveryReport& report = (*durable)->recovery_report();
  ENTANGLED_CHECK(report.anomalies == 0) << report.ToString();
  return report.replayed_events;
}

/// The stream's texts, each group's members back to back and one
/// submission each (generated texts are named "q<group>_<member>").
std::vector<WorkloadEvent> GroupedArrivals(
    const std::vector<WorkloadEvent>& events) {
  std::vector<std::pair<long, std::string>> texts;
  for (const WorkloadEvent& event : events) {
    for (const std::string& text : event.texts) {
      texts.emplace_back(std::strtol(text.c_str() + 1, nullptr, 10), text);
    }
  }
  std::stable_sort(
      texts.begin(), texts.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<WorkloadEvent> grouped(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    grouped[i].kind = WorkloadEvent::Kind::kSubmit;
    grouped[i].texts = {std::move(texts[i].second)};
  }
  return grouped;
}

/// What one stream's rotations wrote to the store directory.
struct RotationBytes {
  uint64_t genesis_fact_bytes = 0;  ///< fact segments of epoch 0
  uint64_t genesis_snapshot_bytes = 0;
  uint64_t rotations = 0;           ///< snapshots after genesis
  uint64_t rotation_fact_bytes = 0;  ///< fact segments after genesis
  uint64_t rotation_snapshot_bytes = 0;
  uint64_t max_rotation_snapshot_bytes = 0;
  double stream_ms = 0;  ///< the stream, rotations included
};

uint64_t FileBytes(const std::string& path) {
  struct stat info;
  ENTANGLED_CHECK(::stat(path.c_str(), &info) == 0) << "stat " << path;
  return static_cast<uint64_t>(info.st_size);
}

/// Streams `events`, evaluating on every arrival, with a rotation every
/// `snapshot_every_events`, and sums, per epoch, the snapshot and
/// fact-segment bytes in the store.
RotationBytes MeasureRotations(const Database& db,
                               const std::vector<WorkloadEvent>& events,
                               uint64_t snapshot_every_events) {
  TempDir dir;
  RotationBytes out;
  {
    EngineOptions engine_options;
    engine_options.evaluate_every = 1;
    CoordinationEngine engine(&db, engine_options);
    DurabilityOptions durability;
    durability.dir = dir.path();
    durability.fsync = FsyncPolicy::kNone;
    durability.snapshot_every_events = snapshot_every_events;
    durability.initial_evaluate_every = 1;
    auto durable =
        DurableCoordinationService::Create(&engine, &db, durability);
    ENTANGLED_CHECK(durable.ok()) << durable.status().ToString();
    const auto start = std::chrono::steady_clock::now();
    StreamEvents(durable->get(), events);
    out.stream_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  std::map<uint64_t, uint64_t> snapshot_bytes, fact_bytes;  // by epoch
  DIR* handle = opendir(dir.path().c_str());
  ENTANGLED_CHECK(handle != nullptr) << dir.path();
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    unsigned long long epoch = 0, position = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "snapshot-%llu.sna%c", &epoch, &tail) == 2) {
      snapshot_bytes[epoch] += FileBytes(dir.path() + "/" + name);
    } else if (std::sscanf(name.c_str(), "facts-%llu-%llu.se%c", &epoch,
                           &position, &tail) == 3) {
      fact_bytes[epoch] += FileBytes(dir.path() + "/" + name);
    }
  }
  closedir(handle);
  for (const auto& [epoch, bytes] : snapshot_bytes) {
    if (epoch == 0) {
      out.genesis_snapshot_bytes = bytes;
      continue;
    }
    ++out.rotations;
    out.rotation_snapshot_bytes += bytes;
    out.max_rotation_snapshot_bytes =
        std::max(out.max_rotation_snapshot_bytes, bytes);
  }
  for (const auto& [epoch, bytes] : fact_bytes) {
    (epoch == 0 ? out.genesis_fact_bytes : out.rotation_fact_bytes) += bytes;
  }
  return out;
}

void ReportRotations(const std::string& name, const Database& db,
                     const RotationBytes& bytes) {
  const double mean_snapshot =
      bytes.rotations == 0
          ? 0.0
          : static_cast<double>(bytes.rotation_snapshot_bytes) /
                static_cast<double>(bytes.rotations);
  std::printf("%s,%zu,%llu,%llu,%.0f,%llu,%.3f\n", name.c_str(),
              db.TotalRows(),
              static_cast<unsigned long long>(bytes.genesis_fact_bytes),
              static_cast<unsigned long long>(bytes.rotations), mean_snapshot,
              static_cast<unsigned long long>(bytes.rotation_fact_bytes),
              bytes.stream_ms);
  benchutil::PrintJsonRecord(
      "wal_rotation_" + name,
      {{"relations", static_cast<double>(db.relation_count())},
       {"rows", static_cast<double>(db.TotalRows())},
       {"snapshot_every", static_cast<double>(kSnapshotEvery)},
       {"genesis_fact_bytes", static_cast<double>(bytes.genesis_fact_bytes)},
       {"genesis_snapshot_bytes",
        static_cast<double>(bytes.genesis_snapshot_bytes)},
       {"rotations", static_cast<double>(bytes.rotations)},
       {"rotation_fact_bytes", static_cast<double>(bytes.rotation_fact_bytes)},
       {"mean_rotation_snapshot_bytes", mean_snapshot},
       {"max_rotation_snapshot_bytes",
        static_cast<double>(bytes.max_rotation_snapshot_bytes)},
       {"stream_ms", bytes.stream_ms}});
}

}  // namespace
}  // namespace entangled

int main() {
  using namespace entangled;

  GeneratorOptions gen;
  gen.seed = 13;
  gen.num_queries = kNumQueries;
  gen.batch_rate = 0.3;
  gen.cancel_rate = 0.2;
  WorkloadGenerator generator(gen);
  Database db;
  ENTANGLED_CHECK(generator.BuildDatabase(&db).ok());
  const GeneratedWorkload workload = generator.Generate();

  benchutil::PrintSeriesHeader(
      "WAL admission throughput by fsync policy",
      {"variant", "time_ms", "submits_per_sec", "wal_records", "fsyncs"});

  // Baseline: the bare engine, no durability decorator at all.
  size_t baseline_submitted = 0;
  const double baseline_ms = benchutil::MeanMillis(kReps, [&] {
    EngineOptions engine_options;
    engine_options.evaluate_every = 0;
    CoordinationEngine engine(&db, engine_options);
    baseline_submitted = StreamEvents(&engine, workload.events);
  });
  const double baseline_qps =
      1000.0 * static_cast<double>(baseline_submitted) / baseline_ms;
  std::printf("no_wal,%.3f,%.0f,0,0\n", baseline_ms, baseline_qps);
  benchutil::PrintJsonRecord(
      "wal_no_wal", {{"queries", static_cast<double>(baseline_submitted)},
                     {"time_ms", baseline_ms},
                     {"submits_per_sec", baseline_qps}});

  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kEveryFlush,
        FsyncPolicy::kEveryRecord}) {
    ReplayCounters counters;
    const double ms = benchutil::MeanMillis(kReps, [&] {
      counters = ReplayDurable(db, workload.events, policy,
                               /*snapshot_every_events=*/0);
    });
    const double qps =
        1000.0 * static_cast<double>(counters.submitted) / ms;
    std::printf("fsync_%s,%.3f,%.0f,%llu,%llu\n", FsyncPolicyName(policy),
                ms, qps,
                static_cast<unsigned long long>(counters.wal.appended_records),
                static_cast<unsigned long long>(counters.wal.fsyncs));
    benchutil::PrintJsonRecord(
        std::string("wal_fsync_") + FsyncPolicyName(policy),
        {{"queries", static_cast<double>(counters.submitted)},
         {"time_ms", ms},
         {"submits_per_sec", qps},
         {"wal_records", static_cast<double>(counters.wal.appended_records)},
         {"wal_bytes", static_cast<double>(counters.wal.bytes)},
         {"fsyncs", static_cast<double>(counters.wal.fsyncs)}});
  }

  benchutil::PrintSeriesHeader(
      "Recovery replay length: genesis-only vs periodic snapshots",
      {"variant", "replayed_events"});
  uint64_t full_replay = 0;
  {
    TempDir dir;
    full_replay = RecoveryReplayLength(db, workload.events, dir.path(),
                                       /*snapshot_every_events=*/0);
  }
  uint64_t tail_replay = 0;
  {
    TempDir dir;
    tail_replay = RecoveryReplayLength(db, workload.events, dir.path(),
                                       kSnapshotEvery);
  }
  std::printf("genesis_only,%llu\n",
              static_cast<unsigned long long>(full_replay));
  std::printf("snapshot_every_%llu,%llu\n",
              static_cast<unsigned long long>(kSnapshotEvery),
              static_cast<unsigned long long>(tail_replay));
  benchutil::PrintJsonRecord(
      "wal_recovery_full",
      {{"replayed_events", static_cast<double>(full_replay)}});
  benchutil::PrintJsonRecord(
      "wal_recovery_snapshot",
      {{"snapshot_every", static_cast<double>(kSnapshotEvery)},
       {"replayed_events", static_cast<double>(tail_replay)}});

  // The deterministic gate: periodic snapshots must shorten the replay
  // tail by at least 10x, or rotation is not pulling its weight.
  ENTANGLED_CHECK(full_replay >= 10 * (tail_replay > 0 ? tail_replay : 1))
      << "snapshot rotation only saved " << full_replay << " -> "
      << tail_replay << " replayed events; widen the stream or shorten "
      << "the rotation interval";
  benchutil::PrintNote(
      "gate: genesis-only replay >= 10x snapshot+tail replay — held");

  // The large database: two 82,168-row arity-2 relations and social
  // traffic, both shaped like the end-to-end benchmark's.
  GeneratorOptions large_gen = gen;
  large_gen.seed = 1;
  large_gen.topology = GraphTopology::kClique;
  large_gen.population = 20000;
  large_gen.num_relations = 2;
  large_gen.min_arity = 2;
  large_gen.max_arity = 2;
  large_gen.rows_per_relation = kPaperRows;
  large_gen.tags_per_column = 64;
  large_gen.max_body_atoms = 1;
  large_gen.stuck_body_rate = 0;
  large_gen.head_only_var_rate = 0;
  large_gen.template_rate = 1.0;
  WorkloadGenerator large_generator(large_gen);
  Database large_db;
  ENTANGLED_CHECK(large_generator.BuildDatabase(&large_db).ok());
  const GeneratedWorkload large_workload = large_generator.Generate();

  benchutil::PrintSeriesHeader(
      "Bytes written per rotation (snapshot every " +
          std::to_string(kSnapshotEvery) + " events)",
      {"database", "rows", "genesis_fact_bytes", "rotations",
       "mean_rotation_snapshot_bytes", "rotation_fact_bytes", "stream_ms"});
  const RotationBytes large = MeasureRotations(
      large_db, GroupedArrivals(large_workload.events), kSnapshotEvery);
  ReportRotations("large", large_db, large);
  const RotationBytes small =
      MeasureRotations(db, workload.events, kSnapshotEvery);
  ReportRotations("default", db, small);

  // The count gate: a rotation writes the pending state, not the
  // database.  The facts never change after genesis, so no rotation
  // writes a fact segment, and a snapshot is a sliver of the facts.
  for (const RotationBytes* bytes : {&large, &small}) {
    ENTANGLED_CHECK(bytes->rotations > 0) << "the stream never rotated";
    ENTANGLED_CHECK(bytes->genesis_fact_bytes > 0) << "genesis wrote no facts";
    ENTANGLED_CHECK(bytes->rotation_fact_bytes == 0)
        << "rotations over unchanged facts wrote "
        << bytes->rotation_fact_bytes << " fact segment bytes";
  }
  ENTANGLED_CHECK(large.max_rotation_snapshot_bytes * 100 <
                  large.genesis_fact_bytes)
      << "a rotation's snapshot took " << large.max_rotation_snapshot_bytes
      << " bytes, not under 1% of the " << large.genesis_fact_bytes
      << " genesis fact bytes";
  benchutil::PrintNote(
      "gate: rotations after genesis write 0 fact bytes, and each snapshot "
      "is < 1% of the large database's genesis fact bytes — held");
  return 0;
}
