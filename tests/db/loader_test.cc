#include "db/loader.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace entangled {
namespace {

const char kFlightsEdb[] = R"(
% a demo instance
relation Flights(flightId, destination) {
  (101, Zurich)
  (102, 'New York')
}
relation Friends(user, friend) {
  (Ann, Bob)   // directed
}
)";

TEST(LoaderTest, LoadsRelationsAndTuples) {
  Database db;
  ASSERT_TRUE(LoadDatabase(kFlightsEdb, &db).ok());
  const Relation* flights = db.Find("Flights");
  ASSERT_NE(flights, nullptr);
  EXPECT_EQ(flights->size(), 2u);
  EXPECT_EQ(flights->column_names(),
            (std::vector<std::string>{"flightId", "destination"}));
  EXPECT_EQ(flights->row(0)[0], Value::Int(101));
  EXPECT_EQ(flights->row(1)[1], Value::Str("New York"));
  EXPECT_EQ(db.Find("Friends")->row(0)[0], Value::Str("Ann"));
}

TEST(LoaderTest, EmptyInputMakesEmptyDatabase) {
  Database db;
  ASSERT_TRUE(LoadDatabase("  % nothing here\n", &db).ok());
  EXPECT_EQ(db.relation_count(), 0u);
}

TEST(LoaderTest, NegativeNumbersAndEmptyRelations) {
  Database db;
  ASSERT_TRUE(
      LoadDatabase("relation T(a) { (-5) }\nrelation E(x, y) { }", &db)
          .ok());
  EXPECT_EQ(db.Find("T")->row(0)[0], Value::Int(-5));
  EXPECT_EQ(db.Find("E")->size(), 0u);
}

TEST(LoaderTest, OutOfRangeIntegerIsAnError) {
  Database db;
  Status status =
      LoadDatabase("relation R(a) {\n  (99999999999999999999)\n}\n", &db);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(),
            "line 2:4: integer literal out of the signed 64-bit range");

  Database bounds;
  ASSERT_TRUE(LoadDatabase("relation R(a) { (9223372036854775807) "
                           "(-9223372036854775808) }",
                           &bounds)
                  .ok());
  EXPECT_EQ(bounds.Find("R")->row(0)[0], Value::Int(INT64_MAX));
  EXPECT_EQ(bounds.Find("R")->row(1)[0], Value::Int(INT64_MIN));
}

TEST(LoaderTest, RepeatedRelationAccumulates) {
  Database db;
  ASSERT_TRUE(LoadDatabase(
                  "relation T(a) { (1) }\nrelation T(a) { (2) }", &db)
                  .ok());
  EXPECT_EQ(db.Find("T")->size(), 2u);
}

TEST(LoaderTest, ArityErrorsAreReported) {
  Database db;
  Status redeclared =
      LoadDatabase("relation T(a) { }\nrelation T(a, b) { }", &db);
  EXPECT_TRUE(redeclared.IsInvalidArgument());
  EXPECT_NE(redeclared.message().find("redeclared"), std::string::npos);

  Database db2;
  Status bad_tuple = LoadDatabase("relation T(a, b) { (1) }", &db2);
  EXPECT_TRUE(bad_tuple.IsInvalidArgument());
}

TEST(LoaderTest, SyntaxErrorsCarryPositions) {
  Database db;
  Status status = LoadDatabase("relation T(a) { (1 }", &db);
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("line 1"), std::string::npos);

  Status keyword = LoadDatabase("table T(a) { }", &db);
  EXPECT_TRUE(keyword.IsInvalidArgument());
  EXPECT_NE(keyword.message().find("relation"), std::string::npos);

  Status unterminated = LoadDatabase("relation T(a) { ('x) }", &db);
  EXPECT_TRUE(unterminated.IsInvalidArgument());
}

TEST(LoaderTest, DumpRoundTrips) {
  Database db;
  ASSERT_TRUE(LoadDatabase(kFlightsEdb, &db).ok());
  std::string dumped = DumpDatabase(db);
  Database reloaded;
  ASSERT_TRUE(LoadDatabase(dumped, &reloaded).ok());
  EXPECT_EQ(DumpDatabase(reloaded), dumped);
  EXPECT_EQ(reloaded.TotalRows(), db.TotalRows());
  EXPECT_EQ(reloaded.relation_names(), db.relation_names());
}

TEST(LoaderTest, MissingFileIsNotFound) {
  Database db;
  EXPECT_TRUE(
      LoadDatabaseFile("/no/such/file.edb", &db).IsNotFound());
  EXPECT_TRUE(ReadFileToString("/no/such/file.edb").status().IsNotFound());
}

}  // namespace
}  // namespace entangled
