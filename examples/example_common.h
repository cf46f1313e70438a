// Shared scaffolding for the narrated examples, built on the session
// front door (api/session.h): every example that coordinates general
// entangled queries drives them through ClientSessions — one session
// per user, answers consumed from the pull-based PollEvents() drain —
// exactly the surface a real multi-tenant deployment would use.  The
// consistent-algorithm examples (movie night, concert tour, class
// enrollment) share the database/printing helpers.

#ifndef ENTANGLED_EXAMPLES_EXAMPLE_COMMON_H_
#define ENTANGLED_EXAMPLES_EXAMPLE_COMMON_H_

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/logging.h"
#include "core/validator.h"
#include "db/database.h"
#include "system/engine.h"

namespace entangled {
namespace examples {

/// Inserts a tuple or aborts the demo (examples have no error story
/// beyond "the walkthrough itself is broken").
inline void InsertOrDie(Relation* relation, Tuple tuple) {
  Status status = relation->Insert(std::move(tuple));
  ENTANGLED_CHECK(status.ok()) << status.ToString();
}

inline void PrintBanner(const std::string& title) {
  std::cout << "== " << title << " ==\n\n";
}

/// "Never trust a solver": prints the independent Definition-1 verdict
/// and converts it to a process exit code.
inline int ReportValidation(const Status& status) {
  std::cout << "\nindependent validation: " << status << "\n";
  return status.ok() ? 0 : 1;
}

/// The session-API bundle every entangled-query example uses: one
/// streaming CoordinationEngine fronted by a SessionManager, one
/// ClientSession per user, answers drained with PollEvents().
class ExampleFrontDoor {
 public:
  explicit ExampleFrontDoor(const Database* db) : db_(db) {
    EngineOptions options;
    options.evaluate_every = 0;  // admit everyone, then coordinate once
    engine_ = std::make_unique<CoordinationEngine>(db, options);
    manager_ = std::make_unique<SessionManager>(engine_.get());
  }

  /// One session per user.
  ClientSession* Connect(const std::string& user) {
    SessionOptions options;
    options.label = user;
    return manager_->Open(std::move(options));
  }

  /// Submits one query text, narrating the typed outcome; aborts the
  /// demo on rejection.
  QueryId SubmitOrDie(ClientSession* session, const std::string& text) {
    SubmitOutcome outcome = session->Submit(text);
    ENTANGLED_CHECK(outcome.ok())
        << session->label() << "'s query rejected ("
        << RejectReasonName(outcome.reason) << "): " << outcome.message;
    std::cout << "  " << session->label() << " submits: " << text << "\n";
    return outcome.id;
  }

  /// Evaluates everything pending; returns delivered coordinating sets.
  size_t Coordinate() { return manager_->Flush(); }

  /// Drains every session's event queue, printing each user's answers
  /// off the self-contained Delivery, and re-validates every delivered
  /// set against Definition 1.  Returns OK when every delivery (if any)
  /// validated.
  Status PrintInboxes() {
    for (SessionId id = 0;
         id < static_cast<SessionId>(manager_->num_sessions()); ++id) {
      ClientSession* s = manager_->Find(id);
      std::vector<SessionEvent> events = s->PollEvents();
      if (events.empty()) {
        std::cout << "  " << s->label() << ": no coordination yet ("
                  << s->num_pending() << " request(s) still pending)\n";
        continue;
      }
      for (const SessionEvent& event : events) {
        const Delivery& delivery = *event.delivery;
        std::cout << "  " << s->label() << " coordinates with {";
        bool first = true;
        for (const DeliveredQuery& q : delivery.queries) {
          std::cout << (first ? "" : ", ") << q.name;
          first = false;
        }
        std::cout << "}:\n";
        for (QueryId own : event.own_queries) {
          for (const Atom& answer : delivery.Find(own)->answers) {
            std::cout << "    answer: " << answer << "\n";
          }
        }
        auto solution = SolutionFromDelivery(engine_->queries(), delivery);
        if (!solution.ok()) return solution.status();
        if (Status valid =
                ValidateSolution(*db_, engine_->queries(), *solution);
            !valid.ok()) {
          return valid;
        }
      }
    }
    return Status::OK();
  }

  SessionManager& manager() { return *manager_; }
  const QuerySet& master() const { return engine_->queries(); }

 private:
  const Database* db_;
  std::unique_ptr<CoordinationEngine> engine_;
  std::unique_ptr<SessionManager> manager_;
};

}  // namespace examples
}  // namespace entangled

#endif  // ENTANGLED_EXAMPLES_EXAMPLE_COMMON_H_
