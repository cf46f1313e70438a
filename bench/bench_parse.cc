// Query text on the service's hot path: ParseQuery on the texts the
// end-to-end benchmark submits, the admission of those texts through
// the session front door, and the rendering and Delivery
// materialization every delivered participant pays.  A submitted text
// is parsed once, by the session, and every layer below takes that
// parse (CoordinationService::SubmitParsed); MakeDelivery renders each
// participant's text back out.
//
// Three series per perfbench shape (perfbench/coordbench.cc MakeSpec,
// seed 1), each over the whole 4,000-text stream after one warm-up
// pass:
//
//   parse_*:     ParseQuery into a fresh QuerySet per text.
//   render_*:    QuerySet::QueryToString of each parsed text.
//   delivery_*:  MakeDelivery of a one-participant solution per parsed
//                text, every variable bound.
//
// Two admission series over the social texts, each ClientSession::Submit
// on a stack built fresh (and untimed) for every repetition, with
// automatic evaluation off so the series is admission alone:
//
//   admit_social:   SessionManager -> ShardedCoordinationEngine.
//   admit_durable:  SessionManager -> DurableCoordinationService (WAL
//                   in a temporary directory, no fsync) ->
//                   ShardedCoordinationEngine.
//
// They also report parses per admitted text (core/parser.h ParseCount)
// and CHECK-fail unless it is exactly 1, or above their allocation
// gates.
//
// Shapes:
//
//   social:  2-5 member cliques, one body atom, ~94 bytes per text.
//   dense:   16-24 member Erdos-Renyi groups, up to 3 body atoms with
//            wildcards, ~130 bytes per text.
//
// Reports ns per text (median, min and max over repetitions) and heap
// allocations per text, counted by the replacing operator new below.
// CHECK-fails when a series exceeds its allocation gate.
//
// Emits BENCH_JSON records (see tools/run_benches.sh); the committed
// BENCH_parse.json at the repo root is the perf trajectory.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/delivery.h"
#include "api/session.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/parser.h"
#include "storage/durable_service.h"
#include "system/sharded_engine.h"
#include "workload/generator.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// None of these is inlined: GCC would otherwise see malloc() and free()
// meet the replaced operators at a call site and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace entangled {
namespace {

constexpr int kReps = 21;

/// Heap allocations per rendered text, and per delivered participant.
constexpr double kRenderAllocGate = 2;
constexpr double kDeliveryAllocGate = 12;

struct Shape {
  const char* name;
  bool dense;
  double parse_alloc_gate;  ///< max heap allocations per parsed text
};

/// The perfbench workload's generator options (MakeSpec, scale 1).
GeneratorOptions PerfbenchOptions(bool dense) {
  GeneratorOptions g;
  g.seed = 1;
  g.population = 20000;
  g.num_relations = 2;
  g.min_arity = 2;
  g.max_arity = 2;
  g.rows_per_relation = 82168;
  g.tags_per_column = 64;
  g.head_only_var_rate = 0;
  g.unsafe_rate = 0;
  g.template_rate = 1.0;
  g.batch_rate = 0;
  g.cancel_rate = 0;
  g.flush_rate = 0;
  g.eval_every_rate = 0;
  g.stuck_body_rate = 0;
  g.num_queries = 4000;
  if (dense) {
    g.topology = GraphTopology::kErdosRenyi;
    g.er_edge_prob = 0.25;
    g.min_group = 16;
    g.max_group = 24;
    g.max_body_atoms = 3;
    g.sharing_density = 0.25;
    g.relation_partitions = 16;
  } else {
    g.topology = GraphTopology::kClique;
    g.min_group = 2;
    g.max_group = 5;
    g.max_body_atoms = 1;
  }
  return g;
}

std::vector<std::string> Texts(bool dense) {
  std::vector<std::string> texts;
  const GeneratedWorkload workload =
      WorkloadGenerator(PerfbenchOptions(dense)).Generate();
  for (const WorkloadEvent& event : workload.events) {
    for (const std::string& text : event.texts) texts.push_back(text);
  }
  return texts;
}

/// Runs `pass` (one pass over the `n` texts) once to warm up, once
/// counting heap allocations, then kReps times on the clock; prints and
/// records the series (`fields` after "texts") and CHECKs its
/// allocation gate.
template <typename Pass>
void Measure(const std::string& series, double n, double alloc_gate,
             std::vector<std::pair<std::string, double>> fields,
             const Pass& pass) {
  pass();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  pass();
  const double allocs_per_text =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before) /
      n;

  std::vector<double> ns_per_text;
  ns_per_text.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    pass();
    ns_per_text.push_back(static_cast<double>(timer.ElapsedNanos()) / n);
  }
  std::sort(ns_per_text.begin(), ns_per_text.end());
  const double median = ns_per_text[ns_per_text.size() / 2];

  benchutil::PrintRow(
      {median, ns_per_text.front(), ns_per_text.back(), allocs_per_text});
  fields.insert(fields.begin(), {"texts", n});
  fields.insert(fields.end(), {{"reps", kReps},
                               {"ns_per_text_median", median},
                               {"ns_per_text_min", ns_per_text.front()},
                               {"ns_per_text_max", ns_per_text.back()},
                               {"allocs_per_text", allocs_per_text},
                               {"alloc_gate", alloc_gate}});
  benchutil::PrintJsonRecord(series, fields);
  ENTANGLED_CHECK_LE(allocs_per_text, alloc_gate)
      << series << ": heap allocations per text above the gate";
}

/// One admission stack: sessions over (durable over) sharded, with
/// automatic evaluation off.
class AdmissionStack {
 public:
  AdmissionStack(const Database* db, bool durable) {
    ShardedEngineOptions options;
    options.engine.evaluate_every = 0;
    engine_ = std::make_unique<ShardedCoordinationEngine>(db, options);
    CoordinationService* top = engine_.get();
    if (durable) {
      char tmpl[] = "/tmp/bench_parse_XXXXXX";
      ENTANGLED_CHECK(mkdtemp(tmpl) != nullptr);
      dir_ = tmpl;
      DurabilityOptions durability;
      durability.dir = dir_;
      durability.fsync = FsyncPolicy::kNone;
      durability.initial_evaluate_every = 0;
      auto created = DurableCoordinationService::Create(top, db, durability);
      ENTANGLED_CHECK(created.ok()) << created.status().ToString();
      durable_ = std::move(*created);
      top = durable_.get();
    }
    manager_ = std::make_unique<SessionManager>(top);
    session_ = manager_->Open();
  }

  ~AdmissionStack() {
    manager_.reset();
    durable_.reset();
    engine_.reset();
    if (dir_.empty()) return;
    if (DIR* dir = opendir(dir_.c_str())) {
      while (dirent* entry = readdir(dir)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") ::unlink((dir_ + "/" + name).c_str());
      }
      closedir(dir);
    }
    ::rmdir(dir_.c_str());
  }

  ClientSession* session() { return session_; }

 private:
  std::string dir_;
  std::unique_ptr<ShardedCoordinationEngine> engine_;
  std::unique_ptr<DurableCoordinationService> durable_;
  std::unique_ptr<SessionManager> manager_;
  ClientSession* session_ = nullptr;
};

/// Submits every text through a fresh stack's session: once to warm up,
/// once counting allocations and parses, then kReps times on the clock
/// (the stack is built and torn down outside the timed loop).  Prints
/// and records the series and CHECKs one parse per text and its
/// allocation gate.
void MeasureAdmission(const std::string& series, const Database& db,
                      bool durable, double alloc_gate,
                      const std::vector<std::string>& texts) {
  const double n = static_cast<double>(texts.size());
  auto pass = [&](uint64_t* allocations, uint64_t* parses) {
    AdmissionStack stack(&db, durable);
    const uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const uint64_t parses_before = ParseCount();
    WallTimer timer;
    for (const std::string& text : texts) {
      const SubmitOutcome outcome = stack.session()->Submit(text);
      ENTANGLED_CHECK(outcome.ok()) << outcome.message;
    }
    const int64_t nanos = timer.ElapsedNanos();
    *allocations = g_allocations.load(std::memory_order_relaxed) -
                   allocs_before;
    *parses = ParseCount() - parses_before;
    return static_cast<double>(nanos) / n;
  };
  uint64_t allocations = 0;
  uint64_t parses = 0;
  pass(&allocations, &parses);
  pass(&allocations, &parses);
  const double allocs_per_text = static_cast<double>(allocations) / n;
  const double parses_per_text = static_cast<double>(parses) / n;

  std::vector<double> ns_per_text;
  ns_per_text.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t unused = 0;
    ns_per_text.push_back(pass(&unused, &unused));
  }
  std::sort(ns_per_text.begin(), ns_per_text.end());
  const double median = ns_per_text[ns_per_text.size() / 2];

  benchutil::PrintRow({median, ns_per_text.front(), ns_per_text.back(),
                       allocs_per_text, parses_per_text});
  benchutil::PrintJsonRecord(series, {{"texts", n},
                                      {"reps", kReps},
                                      {"ns_per_text_median", median},
                                      {"ns_per_text_min", ns_per_text.front()},
                                      {"ns_per_text_max", ns_per_text.back()},
                                      {"allocs_per_text", allocs_per_text},
                                      {"alloc_gate", alloc_gate},
                                      {"parses_per_text", parses_per_text}});
  ENTANGLED_CHECK_EQ(parses, texts.size())
      << series << ": admission parsed a text more than once";
  ENTANGLED_CHECK_LE(allocs_per_text, alloc_gate)
      << series << ": heap allocations per text above the gate";
}

void RunShape(const Shape& shape) {
  const std::vector<std::string> texts = Texts(shape.dense);
  ENTANGLED_CHECK(!texts.empty());
  const double n = static_cast<double>(texts.size());

  size_t text_bytes = 0;
  for (const std::string& text : texts) text_bytes += text.size();
  Measure(std::string("parse_") + shape.name, n, shape.parse_alloc_gate,
          {{"mean_bytes", static_cast<double>(text_bytes) / n}}, [&] {
            for (const std::string& text : texts) {
              QuerySet set;
              ENTANGLED_CHECK(ParseQuery(text, &set).ok()) << text;
            }
          });

  // One parsed set per text, and a solution binding every variable of
  // its query (each variable to its own id: the values do not matter,
  // Value is a 16-byte POD).
  std::vector<QuerySet> sets(texts.size());
  std::vector<CoordinationSolution> solutions(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    ENTANGLED_CHECK(ParseQuery(texts[i], &sets[i]).ok());
    solutions[i].queries = {0};
    for (VarId v : sets[i].query(0).Variables()) {
      solutions[i].assignment.emplace(v, Value::Int(v));
    }
  }

  size_t rendered_bytes = 0;
  for (const QuerySet& set : sets) {
    rendered_bytes += set.QueryToString(0).size();
  }
  Measure(std::string("render_") + shape.name, n, kRenderAllocGate,
          {{"mean_bytes", static_cast<double>(rendered_bytes) / n}}, [&] {
            size_t bytes = 0;
            for (const QuerySet& set : sets) {
              bytes += set.QueryToString(0).size();
            }
            ENTANGLED_CHECK_EQ(bytes, rendered_bytes);
          });

  Measure(std::string("delivery_") + shape.name, n, kDeliveryAllocGate, {},
          [&] {
            size_t bytes = 0;
            for (size_t i = 0; i < sets.size(); ++i) {
              const Delivery delivery = MakeDelivery(sets[i], solutions[i], i);
              bytes += delivery.queries[0].text.size();
            }
            ENTANGLED_CHECK_EQ(bytes, rendered_bytes);
          });
}

void RunAdmission() {
  const std::vector<std::string> texts = Texts(/*dense=*/false);
  Database db;
  ENTANGLED_CHECK(
      WorkloadGenerator(PerfbenchOptions(false)).BuildDatabase(&db).ok());
  MeasureAdmission("admit_social", db, /*durable=*/false,
                   /*alloc_gate=*/52, texts);
  MeasureAdmission("admit_durable", db, /*durable=*/true,
                   /*alloc_gate=*/54, texts);
}

}  // namespace
}  // namespace entangled

int main() {
  using namespace entangled;
  benchutil::PrintSeriesHeader(
      "Query text: parse, render and deliver, perfbench shapes",
      {"ns_per_text_median", "ns_min", "ns_max", "allocs_per_text"});
  RunShape({"social", /*dense=*/false, /*parse_alloc_gate=*/16});
  RunShape({"dense", /*dense=*/true, /*parse_alloc_gate=*/24});
  benchutil::PrintNote(
      "rows: parse, render, delivery for social, then for dense; each "
      "after a warm-up pass that interns every constant");
  benchutil::PrintSeriesHeader(
      "Admission through the session front door, perfbench social texts",
      {"ns_per_text_median", "ns_min", "ns_max", "allocs_per_text",
       "parses_per_text"});
  RunAdmission();
  benchutil::PrintNote(
      "rows: sessions -> sharded, then sessions -> durable -> sharded; "
      "evaluation off, stack built outside the clock");
  return 0;
}
