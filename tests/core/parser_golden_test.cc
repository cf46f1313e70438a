// Golden parse corpus: every entry of parser_golden_corpus.inc was
// recorded with an earlier parser, so a parser rewrite must reproduce
// each outcome byte for byte — query ids and names, variable ids and
// names (wildcards `_0`, `_1`, ... included), atoms, and the exact
// Status of a rejected text.  parse_golden.h documents the modes and
// the outcome format.

#include <gtest/gtest.h>

#include "parse_golden.h"

namespace entangled {
namespace {

using golden::GoldenEntry;
using golden::kCorpus;
using golden::Outcome;

TEST(ParserGoldenTest, CorpusCoversBothOutcomesAndModes) {
  size_t errors = 0, parsed = 0, adopted = 0;
  for (const GoldenEntry& entry : kCorpus) {
    (entry.outcome[0] == 'E' ? errors : parsed) += 1;
    if (entry.mode == 'Q') ++adopted;
  }
  EXPECT_GE(errors + parsed, 800u);
  EXPECT_GE(errors, 300u);
  EXPECT_GE(parsed, 200u);
  EXPECT_GE(adopted, 150u);
}

TEST(ParserGoldenTest, EveryEntryMatches) {
  size_t index = 0;
  for (const GoldenEntry& entry : kCorpus) {
    ASSERT_TRUE(entry.mode == 'M' || entry.mode == 'Q') << index;
    EXPECT_EQ(Outcome(entry.mode, std::string(entry.text)), entry.outcome)
        << "corpus entry " << index << " (mode " << entry.mode
        << "): " << entry.text;
    ++index;
  }
}

}  // namespace
}  // namespace entangled
