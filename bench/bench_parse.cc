// Query parsing: ParseQuery on the texts the end-to-end benchmark
// submits.  Every submitted text is parsed at least twice on its way in
// (the session's admission check and the sharded engine's staging
// parse; the durable decorator validates it once more and recovery
// parses each replayed record), so this is a per-text cost on every
// submit path.
//
// Two series, one per perfbench shape (perfbench/coordbench.cc
// MakeSpec, seed 1), each parsing the whole 4,000-text stream into a
// fresh QuerySet per text after one warm-up pass:
//
//   social:  2-5 member cliques, one body atom, ~94 bytes per text.
//   dense:   16-24 member Erdos-Renyi groups, up to 3 body atoms with
//            wildcards, ~130 bytes per text.
//
// Reports ns per text (median, min and max over repetitions) and heap
// allocations per text, counted by the replacing operator new below.
// CHECK-fails when a shape exceeds its allocation gate.
//
// Emits BENCH_JSON records (see tools/run_benches.sh); the committed
// BENCH_parse.json at the repo root is the perf trajectory.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/parser.h"
#include "workload/generator.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see free() meet a pointer from
// operator new at each call site and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace entangled {
namespace {

constexpr int kReps = 21;

struct Shape {
  const char* name;
  bool dense;
  double alloc_gate;  ///< max heap allocations per text
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

void ParseAll(const std::vector<std::string>& texts) {
  for (const std::string& text : texts) {
    QuerySet set;
    ENTANGLED_CHECK(ParseQuery(text, &set).ok()) << text;
  }
}

void RunShape(const Shape& shape) {
  const std::vector<std::string> texts = Texts(shape.dense);
  ENTANGLED_CHECK(!texts.empty());
  size_t bytes = 0;
  for (const std::string& text : texts) bytes += text.size();
  const double n = static_cast<double>(texts.size());

  ParseAll(texts);  // warm-up: interns every constant once

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ParseAll(texts);
  const double allocs_per_text =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) -
                          before) /
      n;

  std::vector<double> ns_per_text;
  ns_per_text.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    ParseAll(texts);
    ns_per_text.push_back(static_cast<double>(timer.ElapsedNanos()) / n);
  }
  std::sort(ns_per_text.begin(), ns_per_text.end());
  const double median = ns_per_text[ns_per_text.size() / 2];

  benchutil::PrintRow({shape.dense ? 1.0 : 0.0, median, ns_per_text.front(),
                       ns_per_text.back(), allocs_per_text});
  benchutil::PrintJsonRecord(
      std::string("parse_") + shape.name,
      {{"texts", n},
       {"mean_bytes", static_cast<double>(bytes) / n},
       {"reps", kReps},
       {"ns_per_text_median", median},
       {"ns_per_text_min", ns_per_text.front()},
       {"ns_per_text_max", ns_per_text.back()},
       {"allocs_per_text", allocs_per_text},
       {"alloc_gate", shape.alloc_gate}});
  ENTANGLED_CHECK_LE(allocs_per_text, shape.alloc_gate)
      << shape.name << ": heap allocations per parsed text above the gate";
}

}  // namespace
}  // namespace entangled

int main() {
  using namespace entangled;
  benchutil::PrintSeriesHeader(
      "Query parsing: ParseQuery into a fresh set, perfbench shapes",
      {"series", "ns_per_text_median", "ns_min", "ns_max",
       "allocs_per_text"});
  RunShape({"social", /*dense=*/false, /*alloc_gate=*/16});
  RunShape({"dense", /*dense=*/true, /*alloc_gate=*/24});
  benchutil::PrintNote(
      "series 0 = social, 1 = dense; one fresh QuerySet per text, "
      "after a warm-up pass that interns every constant");
  return 0;
}
