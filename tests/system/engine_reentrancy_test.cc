// Regression coverage for the documented callback-reentrancy contract
// (src/system/engine.h): delivery callbacks are notifications, not
// extension points — every mutating entry point must CHECK-fail when
// invoked from inside a delivery.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "system/engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

class EngineReentrancyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }

  /// Delivers immediately: a loner query with no postconditions.
  static const char* Loner() {
    return "solo: { } K(w) :- Users(w, 'user5').";
  }

  Database db_;
};

using EngineReentrancyDeathTest = EngineReentrancyTest;

TEST_F(EngineReentrancyDeathTest, SubmitInsideCallbackDies) {
  CoordinationEngine engine(&db_);
  engine.set_delivery_callback([&engine](const Delivery&) {
    (void)engine.Submit("late: { } K(v) :- Users(v, 'user1').");
  });
  // The CHECK names the violating entry point.
  EXPECT_DEATH(engine.Submit(Loner()),
               "Submit called from inside a delivery callback");
}

TEST_F(EngineReentrancyDeathTest, SubmitBatchInsideCallbackDies) {
  CoordinationEngine engine(&db_);
  engine.set_delivery_callback([&engine](const Delivery&) {
    (void)engine.SubmitBatch({"late: { } K(v) :- Users(v, 'user1')."});
  });
  EXPECT_DEATH(engine.Submit(Loner()),
               "SubmitBatch called from inside a delivery callback");
}

TEST_F(EngineReentrancyDeathTest, CancelInsideCallbackDies) {
  CoordinationEngine engine(&db_);
  engine.set_delivery_callback(
      [&engine](const Delivery&) { engine.Cancel(0); });
  EXPECT_DEATH(engine.Submit(Loner()),
               "Cancel called from inside a delivery callback");
}

TEST_F(EngineReentrancyDeathTest, FlushInsideCallbackDies) {
  CoordinationEngine engine(&db_);
  engine.set_delivery_callback(
      [&engine](const Delivery&) { engine.Flush(); });
  EXPECT_DEATH(engine.Submit(Loner()),
               "Flush called from inside a delivery callback");
}

/// The contract's positive side: deferring the follow-up until the
/// delivering call returns is legal.
TEST_F(EngineReentrancyTest, DeferredFollowUpWorks) {
  CoordinationEngine engine(&db_);
  std::vector<std::string> follow_ups;
  engine.set_delivery_callback([&follow_ups](const Delivery&) {
    follow_ups.push_back("late: { } K(v) :- Users(v, 'user1').");
  });
  ASSERT_TRUE(engine.Submit(Loner()).ok());
  ASSERT_EQ(follow_ups.size(), 1u);
  for (const std::string& text : follow_ups) {
    EXPECT_TRUE(engine.Submit(text).ok());
  }
  EXPECT_EQ(engine.stats().coordinating_sets, 2u);
}

}  // namespace
}  // namespace entangled
