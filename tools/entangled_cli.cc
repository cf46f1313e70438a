// entangled_cli — command-line front door for entangled-query
// coordination, built on the session API (api/session.h).
//
//   entangled_cli [--help] [--version]
//   entangled_cli coordinate --data FILE.edb --queries FILE.eq
//                 [--algorithm scc|gupta|generic|single] [--quiet]
//   entangled_cli sessions   --data FILE.edb --queries FILE.eq
//                 [--sessions N] [--sharded] [--evaluate-every K]
//                 [--record DIR] [--quiet]
//   entangled_cli metrics    [--seed N] [--num-queries N] [--sessions N]
//                 [--max-pending N] [--sharded] [--evaluate-every K]
//                 [--record DIR]
//   entangled_cli replay     DIR [--sharded] [--quiet]
//
// `coordinate` (the default when flags are given without a subcommand)
// loads a database (db/loader.h format), parses entangled queries in
// the paper's syntax (core/parser.h), streams them through a
// ClientSession over the coordination engine, drains the delivered
// events with PollEvents(), independently validates every delivery
// against Definition 1, and prints each participant's grounded
// answers.  `--algorithm` values other than `scc` run the matching
// reference solver directly on the whole set instead (those algorithms
// have no streaming engine).
//
// `sessions` distributes the queries round-robin across N client
// sessions of one shared engine (optionally the sharded front door),
// coordinates, and prints each session's delivered events plus a
// per-session table of pending counts — the multi-tenant view.
//
// `metrics` needs no input files: it drives a seeded generator workload
// (workload/generator.h) through N client sessions — optionally armed
// with a per-session pending quota so rejection counters are exercised —
// and prints the manager's observability snapshot as one JSON document
// (SessionManager::Metrics; schema documented in the README).  The
// document is stable: two runs with the same flags agree on every field
// except wall-clock timings (keys ending `_ns`, histogram `buckets`).
//
// `--record DIR` (sessions and metrics) wraps the engine in the
// write-ahead-logging decorator (storage/durable_service.h): every
// admitted event is logged to DIR, which must be empty — the run
// leaves behind a genesis snapshot plus the WAL segment(s).
//
// `replay DIR` rehydrates a recorded directory: loads the newest
// snapshot, replays the WAL tail through a SessionManager (delivery
// sequences resume, not restart), prints the recovery report to
// stderr and the observability snapshot as JSON to stdout.  Recovery
// rotates the directory to a fresh snapshot, so a damaged tail is
// healed in place and a second replay reads clean state.
//
// Exit codes: 0 = coordinating set(s) found; 2 = none exists;
//             1 = usage/parse/validation error.

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algo/generic_solver.h"
#include "algo/gupta_baseline.h"
#include "algo/scc_coordination.h"
#include "algo/single_connected.h"
#include "api/session.h"
#include "core/parser.h"
#include "core/properties.h"
#include "core/validator.h"
#include "db/loader.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/generator.h"

namespace {

using namespace entangled;

constexpr const char* kVersion = "0.6.0";

struct CliOptions {
  std::string command = "coordinate";
  std::string data_path;
  std::string queries_path;
  std::string algorithm = "scc";
  size_t num_sessions = 4;
  size_t evaluate_every = 0;
  bool sharded = false;
  bool quiet = false;
  // metrics command only
  uint64_t seed = 1;
  size_t num_queries = 48;
  size_t max_pending = 0;
  // storage: --record DIR (sessions/metrics) or the replay directory
  std::string storage_dir;
};

void PrintVersion() {
  std::cout << "entangled_cli " << kVersion
            << " (The Complexity of Social Coordination, VLDB 2012)\n";
}

void PrintUsage() {
  std::cerr
      << "usage: entangled_cli [--help] [--version]\n"
      << "       entangled_cli coordinate --data FILE.edb --queries "
         "FILE.eq\n"
      << "                     [--algorithm scc|gupta|generic|single] "
         "[--quiet]\n"
      << "       entangled_cli sessions --data FILE.edb --queries FILE.eq\n"
      << "                     [--sessions N] [--sharded] "
         "[--evaluate-every K]\n"
      << "                     [--record DIR] [--quiet]\n"
      << "       entangled_cli metrics [--seed N] [--num-queries N] "
         "[--sessions N]\n"
      << "                     [--max-pending N] [--sharded] "
         "[--evaluate-every K]\n"
      << "                     [--record DIR]\n"
      << "       entangled_cli replay DIR [--sharded] [--quiet]\n\n"
      << "commands:\n"
      << "  coordinate   stream the queries through one client session,\n"
      << "               coordinate, validate, print grounded answers\n"
      << "               (default when only flags are given)\n"
      << "  sessions     round-robin the queries across N client sessions\n"
      << "               and show each session's deliveries and pending\n"
      << "               counts\n"
      << "  metrics      drive a seeded generator workload through N\n"
      << "               sessions and print the observability snapshot\n"
      << "               as one JSON document (no input files needed)\n"
      << "  replay       rehydrate a recorded storage directory (latest\n"
      << "               snapshot + WAL tail) through a SessionManager\n"
      << "               and print the observability snapshot as JSON;\n"
      << "               the recovery report goes to stderr\n\n"
      << "options:\n"
      << "  --data            database instance (relation blocks; see "
         "docs)\n"
      << "  --queries         entangled queries, one '{P} H :- B.' each\n"
      << "  --algorithm       scc      streaming engine + SCC algorithm\n"
      << "                             (default; safe sets, uniqueness\n"
      << "                             not required)\n"
      << "                    gupta    Gupta et al. baseline (safe + "
         "unique)\n"
      << "                    generic  complete exponential search\n"
      << "                    single   single-connected solver (Thm. 3)\n"
      << "  --sessions N      client sessions to spread queries over "
         "(default 4)\n"
      << "  --sharded         serve from the sharded multi-tenant front "
         "door\n"
      << "  --evaluate-every K  per-arrival evaluation cadence (default "
         "0:\n"
      << "                    admit everything, then flush once)\n"
      << "  --seed N          metrics: workload generator seed (default 1)\n"
      << "  --num-queries N   metrics: query texts to generate (default "
         "48)\n"
      << "  --max-pending N   metrics: per-session pending quota (default "
         "0:\n"
      << "                    unlimited; bounces are typed and counted)\n"
      << "  --record DIR      sessions/metrics: write-ahead-log every\n"
      << "                    admitted event to DIR (created if missing,\n"
      << "                    must hold no prior recording); replay the\n"
      << "                    result with 'entangled_cli replay DIR'\n"
      << "  --quiet           print only the coordinating sets\n"
      << "  --help, -h        this text\n"
      << "  --version         version string\n";
}

bool ParseArgs(int argc, char** argv, CliOptions* options, int* exit_code) {
  *exit_code = 1;
  bool saw_command = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--data") {
      const char* v = next();
      if (v == nullptr) return false;
      options->data_path = v;
    } else if (arg == "--queries") {
      const char* v = next();
      if (v == nullptr) return false;
      options->queries_path = v;
    } else if (arg == "--algorithm") {
      const char* v = next();
      if (v == nullptr) return false;
      options->algorithm = v;
    } else if (arg == "--sessions") {
      const char* v = next();
      const long n = v == nullptr ? 0 : std::atol(v);
      if (n <= 0 || n > 100000) {
        std::cerr << "--sessions wants a count in [1, 100000]\n";
        return false;
      }
      options->num_sessions = static_cast<size_t>(n);
    } else if (arg == "--evaluate-every") {
      const char* v = next();
      const long n = v == nullptr ? -1 : std::atol(v);
      if (n < 0) {
        std::cerr << "--evaluate-every wants a cadence >= 0\n";
        return false;
      }
      options->evaluate_every = static_cast<size_t>(n);
    } else if (arg == "--seed") {
      const char* v = next();
      const long long n = v == nullptr ? -1 : std::atoll(v);
      if (n < 0) {
        std::cerr << "--seed wants a value >= 0\n";
        return false;
      }
      options->seed = static_cast<uint64_t>(n);
    } else if (arg == "--num-queries") {
      const char* v = next();
      const long n = v == nullptr ? 0 : std::atol(v);
      if (n <= 0 || n > 1000000) {
        std::cerr << "--num-queries wants a count in [1, 1000000]\n";
        return false;
      }
      options->num_queries = static_cast<size_t>(n);
    } else if (arg == "--max-pending") {
      const char* v = next();
      const long n = v == nullptr ? -1 : std::atol(v);
      if (n < 0) {
        std::cerr << "--max-pending wants a quota >= 0\n";
        return false;
      }
      options->max_pending = static_cast<size_t>(n);
    } else if (arg == "--record") {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::cerr << "--record wants a directory path\n";
        return false;
      }
      options->storage_dir = v;
    } else if (arg == "--sharded") {
      options->sharded = true;
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      *exit_code = 0;
      return false;
    } else if (arg == "--version") {
      PrintVersion();
      *exit_code = 0;
      return false;
    } else if (!saw_command && !arg.empty() && arg[0] != '-') {
      options->command = arg;
      saw_command = true;
    } else if (saw_command && options->command == "replay" && !arg.empty() &&
               arg[0] != '-' && options->storage_dir.empty()) {
      options->storage_dir = arg;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  if (options->command != "coordinate" && options->command != "sessions" &&
      options->command != "metrics" && options->command != "replay") {
    std::cerr << "unknown command: " << options->command << "\n";
    return false;
  }
  if (options->command != "coordinate" && options->algorithm != "scc") {
    std::cerr << "the " << options->command
              << " front door serves the streaming engine (scc) only; "
                 "--algorithm " << options->algorithm
              << " is a coordinate-command reference path\n";
    return false;
  }
  if (options->command == "coordinate" && !options->storage_dir.empty()) {
    std::cerr << "--record applies to the sessions and metrics front "
                 "doors\n";
    return false;
  }
  if (options->command == "replay") {
    if (options->storage_dir.empty()) {
      std::cerr << "replay wants a storage directory: entangled_cli "
                   "replay DIR\n";
      return false;
    }
    if (!options->data_path.empty() || !options->queries_path.empty()) {
      std::cerr << "replay reads everything from the storage directory; "
                   "--data/--queries do not apply\n";
      return false;
    }
    return true;
  }
  if (options->command == "metrics") {
    if (!options->data_path.empty() || !options->queries_path.empty()) {
      std::cerr << "metrics generates its own workload; --data/--queries "
                   "do not apply\n";
      return false;
    }
    return true;
  }
  if (options->data_path.empty() || options->queries_path.empty()) {
    PrintUsage();
    return false;
  }
  return true;
}

/// Loads the database and parses the query file; returns false (after
/// printing the error) when anything is malformed.
bool LoadInputs(const CliOptions& options, Database* db, QuerySet* queries) {
  if (Status status = LoadDatabaseFile(options.data_path, db);
      !status.ok()) {
    std::cerr << options.data_path << ": " << status << "\n";
    return false;
  }
  auto query_text = ReadFileToString(options.queries_path);
  if (!query_text.ok()) {
    std::cerr << options.queries_path << ": " << query_text.status() << "\n";
    return false;
  }
  auto ids = ParseQueries(*query_text, queries);
  if (!ids.ok()) {
    std::cerr << options.queries_path << ": " << ids.status() << "\n";
    return false;
  }
  if (Status status = queries->CheckWellFormed(*db); !status.ok()) {
    std::cerr << "ill-formed queries: " << status << "\n";
    return false;
  }
  return true;
}

/// Re-renders each parsed query in the paper's syntax — the per-query
/// texts a session submits one at a time.  Constants are quoted,
/// parser-produced variable names are lowercase and wildcards render as
/// `_`, so each text parses back to the query it came from.
std::vector<std::string> QueryTexts(const QuerySet& queries) {
  std::vector<std::string> texts;
  texts.reserve(queries.size());
  for (QueryId id = 0; id < static_cast<QueryId>(queries.size()); ++id) {
    texts.push_back(queries.QueryToString(id));
  }
  return texts;
}

/// Re-validates a delivered event against Definition 1 using `master`,
/// a query set in the service's id namespace; returns false (printing
/// the failure) on a solver bug.
bool ValidateDelivered(const Database& db, const QuerySet& master,
                       const Delivery& delivery) {
  auto solution = SolutionFromDelivery(master, delivery);
  Status valid = solution.ok() ? ValidateSolution(db, master, *solution)
                               : solution.status();
  if (!valid.ok()) {
    std::cerr << "INTERNAL ERROR: engine delivered an invalid solution: "
              << valid << "\n";
    return false;
  }
  return true;
}

/// Ensures `--record DIR` points at a usable, empty recording target:
/// creates the directory when missing and refuses one that already
/// holds a recording (overwriting a prior log silently would defeat
/// the point of durability).
bool PrepareRecordingDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::cerr << "--record " << dir << ": cannot create directory\n";
    return false;
  }
  auto listing = ListStorageDir(dir);
  if (!listing.ok()) {
    std::cerr << "--record " << dir << ": " << listing.status() << "\n";
    return false;
  }
  if (!listing->snapshot_epochs.empty() || !listing->wal_epochs.empty()) {
    std::cerr << "--record " << dir
              << ": directory already holds a recording; replay it with "
                 "'entangled_cli replay " << dir
              << "' or point --record somewhere fresh\n";
    return false;
  }
  return true;
}

/// Wraps `inner` in the write-ahead-logging decorator recording to
/// `dir` (fresh genesis: the inner engine admits only through Submit,
/// so its slots equal the ids and Definition-1 validation against its
/// master set still holds).
bool WrapWithRecorder(
    CoordinationService* inner, const Database& db, const std::string& dir,
    size_t evaluate_every,
    std::unique_ptr<DurableCoordinationService>* recorder) {
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kEveryFlush;
  durability.initial_evaluate_every = evaluate_every;
  auto created = DurableCoordinationService::Create(inner, &db, durability);
  if (!created.ok()) {
    std::cerr << "--record " << dir << ": " << created.status() << "\n";
    return false;
  }
  *recorder = std::move(*created);
  return true;
}

void PrintDelivery(const Delivery& delivery, bool quiet) {
  if (quiet) {
    std::cout << "{";
    for (size_t i = 0; i < delivery.queries.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << delivery.queries[i].name;
    }
    std::cout << "}\n";
    return;
  }
  std::cout << delivery.ToString() << "\n";
}

int RunCoordinate(const CliOptions& options, const Database& db,
                  QuerySet& queries) {
  if (!options.quiet) {
    std::cout << "database: " << db.relation_count() << " relations, "
              << db.TotalRows() << " tuples\n"
              << "queries:  " << queries.size() << " ("
              << (IsSafeSet(queries) ? "safe" : "UNSAFE") << ", "
              << (IsUniqueSet(queries) ? "unique" : "not unique")
              << ")\n\n";
  }

  // The reference solvers have no streaming engine: run them directly
  // on the whole set (the paper's batch formulation).
  if (options.algorithm != "scc") {
    std::string stats_line;
    Result<CoordinationSolution> solution = [&]() {
      if (options.algorithm == "gupta") {
        GuptaBaseline solver(&db);
        auto result = solver.Solve(queries);
        stats_line = solver.stats().ToString();
        return result;
      }
      if (options.algorithm == "generic") {
        GenericSolver solver(&db);
        auto result = solver.FindAny(queries);
        stats_line = solver.stats().ToString();
        return result;
      }
      if (options.algorithm == "single") {
        SingleConnectedSolver solver(&db);
        auto result = solver.Solve(queries);
        stats_line = solver.stats().ToString();
        return result;
      }
      return Result<CoordinationSolution>(Status::InvalidArgument(
          "unknown algorithm '", options.algorithm, "'"));
    }();
    if (!solution.ok()) {
      if (solution.status().IsNotFound()) {
        std::cout << "no coordinating set: " << solution.status().message()
                  << "\n";
        return 2;
      }
      std::cerr << "error: " << solution.status() << "\n";
      return 1;
    }
    if (Status valid = ValidateSolution(db, queries, *solution);
        !valid.ok()) {
      std::cerr << "INTERNAL ERROR: solver returned an invalid solution: "
                << valid << "\n";
      return 1;
    }
    std::cout << "coordinating set: " << SolutionToString(queries, *solution)
              << "\n";
    if (!options.quiet) {
      for (QueryId id : solution->queries) {
        for (const Atom& answer : solution->GroundedHeads(queries, id)) {
          std::cout << "  " << queries.query(id).name << " <- " << answer
                    << "\n";
        }
      }
      std::cout << "stats: " << stats_line << "\n";
    }
    return 0;
  }

  // The production path: one client session over the streaming engine.
  EngineOptions engine_options;
  engine_options.evaluate_every = options.evaluate_every;
  CoordinationEngine engine(&db, engine_options);
  SessionManager manager(&engine);
  ClientSession* session = manager.Open({/*label=*/"cli"});
  for (const std::string& text : QueryTexts(queries)) {
    SubmitOutcome outcome = session->Submit(text);
    if (!outcome.ok()) {
      std::cerr << "rejected (" << RejectReasonName(outcome.reason)
                << "): " << text << "\n  " << outcome.message << "\n";
      return 1;
    }
  }
  manager.Flush();

  size_t delivered = 0;
  for (const SessionEvent& event : session->PollEvents()) {
    if (!ValidateDelivered(db, engine.queries(), *event.delivery)) return 1;
    ++delivered;
    PrintDelivery(*event.delivery, options.quiet);
  }
  if (!options.quiet) {
    const EngineStats stats = manager.StatsSnapshot();
    std::cout << "still pending: " << session->num_pending() << " of "
              << stats.submitted << " submitted\n"
              << "stats: evaluations=" << stats.evaluations
              << " db_queries=" << stats.db_queries
              << " coordinating_sets=" << stats.coordinating_sets << "\n";
  }
  if (delivered == 0) {
    std::cout << "no coordinating set\n";
    return 2;
  }
  return 0;
}

int RunSessions(const CliOptions& options, const Database& db,
                QuerySet& queries) {
  // Deliveries are validated against the input set: every text below
  // is submitted in input order and any rejection exits, so service ids
  // are the input ids.
  std::unique_ptr<CoordinationService> service;
  if (options.sharded) {
    ShardedEngineOptions sharded_options;
    sharded_options.engine.evaluate_every = options.evaluate_every;
    service = std::make_unique<ShardedCoordinationEngine>(&db,
                                                          sharded_options);
  } else {
    EngineOptions engine_options;
    engine_options.evaluate_every = options.evaluate_every;
    service = std::make_unique<CoordinationEngine>(&db, engine_options);
  }

  std::unique_ptr<DurableCoordinationService> recorder;
  CoordinationService* front = service.get();
  if (!options.storage_dir.empty()) {
    if (!PrepareRecordingDir(options.storage_dir)) return 1;
    if (!WrapWithRecorder(service.get(), db, options.storage_dir,
                          options.evaluate_every, &recorder)) {
      return 1;
    }
    front = recorder.get();
  }

  SessionManager manager(front);
  std::vector<ClientSession*> sessions;
  for (size_t i = 0; i < options.num_sessions; ++i) {
    sessions.push_back(manager.Open());
  }
  const std::vector<std::string> texts = QueryTexts(queries);
  for (size_t i = 0; i < texts.size(); ++i) {
    ClientSession* session = sessions[i % sessions.size()];
    SubmitOutcome outcome = session->Submit(texts[i]);
    if (!outcome.ok()) {
      std::cerr << "rejected (" << RejectReasonName(outcome.reason)
                << "): " << texts[i] << "\n  " << outcome.message << "\n";
      return 1;
    }
  }
  manager.Flush();

  size_t delivered_events = 0;
  for (ClientSession* session : sessions) {
    std::vector<SessionEvent> events = session->PollEvents();
    if (events.empty()) continue;
    if (!options.quiet) {
      std::cout << "== session " << session->id() << " ("
                << session->label() << ") ==\n";
    }
    for (const SessionEvent& event : events) {
      if (!ValidateDelivered(db, queries, *event.delivery)) return 1;
      ++delivered_events;
      PrintDelivery(*event.delivery, options.quiet);
    }
  }

  // The multi-tenant table the command exists for: per-session pending
  // counts after coordination settled.
  std::cout << "\nsession  label     submitted  delivered  pending\n";
  for (const ClientSession* session : manager.sessions()) {
    std::cout << "  " << session->id() << "      " << session->label()
              << "        " << session->submitted() << "          "
              << session->deliveries() << "          "
              << session->num_pending();
    if (session->num_pending() > 0 && !options.quiet) {
      std::cout << "   (";
      const std::vector<QueryId> pending = session->PendingQueries();
      for (size_t i = 0; i < pending.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ")
                  << queries.query(pending[i]).name;
      }
      std::cout << ")";
    }
    std::cout << "\n";
  }
  std::cout << "total pending: " << manager.num_pending() << "\n";
  if (recorder != nullptr && !options.quiet) {
    const WalStats wal = recorder->wal_stats();
    std::cout << "recorded " << wal.appended_records << " events ("
              << wal.bytes << " bytes) to " << options.storage_dir << "\n";
  }
  return delivered_events > 0 ? 0 : 2;
}

int RunMetrics(const CliOptions& options) {
  GeneratorOptions gen;
  gen.seed = options.seed;
  gen.num_queries = options.num_queries;
  WorkloadGenerator generator(gen);
  Database db;
  if (Status built = generator.BuildDatabase(&db); !built.ok()) {
    std::cerr << "generator: " << built << "\n";
    return 1;
  }
  const GeneratedWorkload workload = generator.Generate();

  std::unique_ptr<CoordinationService> service;
  if (options.sharded) {
    ShardedEngineOptions sharded_options;
    sharded_options.engine.evaluate_every = options.evaluate_every;
    service = std::make_unique<ShardedCoordinationEngine>(&db,
                                                          sharded_options);
  } else {
    EngineOptions engine_options;
    engine_options.evaluate_every = options.evaluate_every;
    service = std::make_unique<CoordinationEngine>(&db, engine_options);
  }
  std::unique_ptr<DurableCoordinationService> recorder;
  CoordinationService* front = service.get();
  if (!options.storage_dir.empty()) {
    if (!PrepareRecordingDir(options.storage_dir)) return 1;
    if (!WrapWithRecorder(service.get(), db, options.storage_dir,
                          options.evaluate_every, &recorder)) {
      return 1;
    }
    front = recorder.get();
  }
  SessionManager manager(front);
  SessionOptions session_options;
  session_options.max_pending = options.max_pending;
  std::vector<ClientSession*> sessions;
  for (size_t i = 0; i < options.num_sessions; ++i) {
    sessions.push_back(manager.Open(session_options));
  }

  // Replay the generated stream round-robin across the sessions.  With
  // a quota armed some submissions legitimately bounce — the snapshot
  // printed below counts them; any *other* rejection of a generated
  // query is an internal error.
  size_t next_session = 0;
  for (const WorkloadEvent& event : workload.events) {
    switch (event.kind) {
      case WorkloadEvent::Kind::kSubmit:
      case WorkloadEvent::Kind::kSubmitBatch: {
        ClientSession* session = sessions[next_session++ % sessions.size()];
        RejectReason reason = RejectReason::kNone;
        std::string message;
        if (event.kind == WorkloadEvent::Kind::kSubmit) {
          SubmitOutcome outcome = session->Submit(event.texts.front());
          reason = outcome.reason;
          message = outcome.message;
        } else {
          BatchOutcome outcome = session->SubmitBatch(event.texts);
          reason = outcome.reason;
          message = outcome.message;
        }
        const bool quota_bounce = reason == RejectReason::kQuotaPending ||
                                  reason == RejectReason::kQuotaRate ||
                                  reason == RejectReason::kQuotaFootprint ||
                                  reason == RejectReason::kOverloaded;
        if (reason != RejectReason::kNone && !quota_bounce) {
          std::cerr << "INTERNAL ERROR: generated query rejected ("
                    << RejectReasonName(reason) << "): " << message << "\n";
          return 1;
        }
        break;
      }
      case WorkloadEvent::Kind::kCancel: {
        const std::vector<QueryId> pending = manager.PendingQueries();
        if (pending.empty()) break;
        const QueryId gid = pending[event.cancel_rank % pending.size()];
        const SessionId owner = manager.OwnerOf(gid);
        if (owner >= 0) manager.Find(owner)->Cancel(gid);
        break;
      }
      case WorkloadEvent::Kind::kSetEvaluateEvery:
        manager.set_evaluate_every(event.evaluate_every);
        break;
      case WorkloadEvent::Kind::kFlush:
        manager.Flush();
        break;
    }
  }
  manager.Flush();
  for (ClientSession* session : sessions) session->PollEvents();

  std::cout << manager.Metrics().ToJson() << "\n";
  return 0;
}

int RunReplay(const CliOptions& options) {
  auto state = ReadDurableState(options.storage_dir);
  if (!state.ok()) {
    std::cerr << options.storage_dir << ": " << state.status() << "\n";
    return 1;
  }

  // Rebuild the fact database the snapshot captured, then stand up the
  // same stack a recording run uses: inner engine -> durability
  // decorator -> session manager.
  Database db;
  if (Status built = BuildDatabaseFromSnapshot(state->snapshot, &db);
      !built.ok()) {
    std::cerr << options.storage_dir << ": " << built << "\n";
    return 1;
  }
  std::unique_ptr<CoordinationService> service;
  if (options.sharded) {
    ShardedEngineOptions sharded_options;
    sharded_options.engine.evaluate_every = 1;
    service =
        std::make_unique<ShardedCoordinationEngine>(&db, sharded_options);
  } else {
    EngineOptions engine_options;
    engine_options.evaluate_every = 1;
    service = std::make_unique<CoordinationEngine>(&db, engine_options);
  }
  DurabilityOptions durability;
  durability.dir = options.storage_dir;
  durability.fsync = FsyncPolicy::kEveryFlush;
  auto durable = DurableCoordinationService::Create(service.get(), &db,
                                                    durability);
  if (!durable.ok()) {
    std::cerr << options.storage_dir << ": " << durable.status() << "\n";
    return 1;
  }

  // Session tags in the log are manager-assigned ids (0-based), so
  // reopening max_tag + 1 sessions reproduces the original addressing.
  int64_t max_tag = -1;
  for (const SnapshotPendingQuery& pending : state->snapshot.pending) {
    max_tag = std::max(max_tag, pending.session);
  }
  for (const WalRecord& record : state->tail) {
    max_tag = std::max(max_tag, record.session);
  }
  SessionManager manager((*durable).get());
  std::vector<ClientSession*> sessions;
  for (int64_t tag = 0; tag <= max_tag; ++tag) {
    sessions.push_back(manager.Open());
  }

  if (Status recovered = (*durable)->Recover(std::move(*state), &manager);
      !recovered.ok()) {
    std::cerr << options.storage_dir << ": " << recovered << "\n";
    return 1;
  }
  const RecoveryReport& report = (*durable)->recovery_report();
  if (!options.quiet) std::cerr << report.ToString() << "\n";

  // Drain the reforwarded (in-flight-at-crash) deliveries so the
  // printed snapshot reflects settled per-session state.
  for (ClientSession* session : sessions) session->PollEvents();

  std::cout << manager.Metrics().ToJson() << "\n";
  return report.corruption_detected ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  int exit_code = 1;
  if (!ParseArgs(argc, argv, &options, &exit_code)) return exit_code;

  if (options.command == "metrics") return RunMetrics(options);
  if (options.command == "replay") return RunReplay(options);

  Database db;
  QuerySet queries;
  if (!LoadInputs(options, &db, &queries)) return 1;

  return options.command == "sessions" ? RunSessions(options, db, queries)
                                       : RunCoordinate(options, db, queries);
}
