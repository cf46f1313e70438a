#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/parser.h"
#include "core/unify.h"

namespace entangled {
namespace {

constexpr size_t kNumVars = 6;

Atom RandomAtom(Rng* rng, const std::string& relation, size_t arity) {
  Atom atom;
  atom.relation = relation;
  for (size_t i = 0; i < arity; ++i) {
    switch (rng->NextBounded(3)) {
      case 0:
        atom.terms.push_back(
            Term::Var(static_cast<VarId>(rng->NextBounded(kNumVars))));
        break;
      case 1:
        atom.terms.push_back(
            Term::Int(static_cast<int64_t>(rng->NextBounded(3))));
        break;
      default:
        atom.terms.push_back(Term::Str(
            std::string(1, static_cast<char>('a' + rng->NextBounded(3)))));
    }
  }
  return atom;
}

class UnifyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnifyProperty, MguMakesAtomsSyntacticallyEqual) {
  Rng rng(GetParam() * 31337);
  for (int trial = 0; trial < 50; ++trial) {
    size_t arity = 1 + rng.NextBounded(4);
    Atom a = RandomAtom(&rng, "R", arity);
    Atom b = RandomAtom(&rng, "R", arity);
    Substitution subst(kNumVars);
    if (subst.UnifyAtoms(a, b)) {
      EXPECT_EQ(subst.Apply(a), subst.Apply(b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST_P(UnifyProperty, UnificationIsSymmetric) {
  Rng rng(GetParam() * 271);
  for (int trial = 0; trial < 50; ++trial) {
    size_t arity = 1 + rng.NextBounded(4);
    Atom a = RandomAtom(&rng, "R", arity);
    Atom b = RandomAtom(&rng, "R", arity);
    Substitution ab(kNumVars);
    Substitution ba(kNumVars);
    EXPECT_EQ(ab.UnifyAtoms(a, b), ba.UnifyAtoms(b, a))
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST_P(UnifyProperty, SuccessImpliesPositionwiseUnifiable) {
  Rng rng(GetParam() * 65537);
  for (int trial = 0; trial < 50; ++trial) {
    size_t arity = 1 + rng.NextBounded(4);
    Atom a = RandomAtom(&rng, "R", arity);
    Atom b = RandomAtom(&rng, "R", arity);
    Substitution subst(kNumVars);
    if (subst.UnifyAtoms(a, b)) {
      EXPECT_TRUE(PositionwiseUnifiable(a, b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST_P(UnifyProperty, ApplyIsIdempotent) {
  Rng rng(GetParam() * 8191);
  for (int trial = 0; trial < 50; ++trial) {
    Substitution subst(kNumVars);
    // Random merge/bind operations.
    for (int op = 0; op < 6; ++op) {
      VarId v = static_cast<VarId>(rng.NextBounded(kNumVars));
      if (rng.NextBool()) {
        subst.UnifyVars(v, static_cast<VarId>(rng.NextBounded(kNumVars)));
      } else {
        subst.BindConstant(v,
                           Value::Int(static_cast<int64_t>(
                               rng.NextBounded(2))));
      }
    }
    Atom atom = RandomAtom(&rng, "R", 3);
    Atom once = subst.Apply(atom);
    Atom twice = subst.Apply(once);
    EXPECT_EQ(once, twice) << atom.ToString();
  }
}

TEST_P(UnifyProperty, ParserPrinterRoundTrip) {
  Rng rng(GetParam() * 131);
  // Random queries through print -> parse -> print: fixpoint after one
  // round trip.
  for (int trial = 0; trial < 10; ++trial) {
    QuerySet set;
    QueryBuilder builder(&set, "q");
    size_t arity = 1 + rng.NextBounded(3);
    std::vector<Term> head_terms;
    VarId v0 = builder.Var("v0");
    head_terms.push_back(Term::Var(v0));
    // String constants include both quote kinds (one per constant: the
    // grammar has no escapes), so the printer has to pick the quote.
    const char* const kStrings[] = {"K0", "K1", "it's", "Zurich's",
                                    "say \"hi\"", "a b"};
    for (size_t i = 1; i < arity; ++i) {
      head_terms.push_back(
          rng.NextBool()
              ? Term::Int(static_cast<int64_t>(rng.NextBounded(10)))
              : Term::Str(kStrings[rng.NextBounded(
                    sizeof(kStrings) / sizeof(kStrings[0]))]));
    }
    builder.Head("H", head_terms);
    builder.Body("B", {Term::Var(v0)});
    if (rng.NextBool()) builder.Post("P", {Term::Var(v0)});
    QueryId id = builder.Build();
    std::string printed = set.QueryToString(id);

    QuerySet reparsed;
    auto rid = ParseQuery(printed, &reparsed);
    ASSERT_TRUE(rid.ok()) << printed << " -> " << rid.status();
    EXPECT_EQ(reparsed.QueryToString(*rid), printed);
  }
}

TEST_P(UnifyProperty, ParsedWildcardsRoundTrip) {
  Rng rng(GetParam() * 977);
  // Parser-produced queries with `_` wildcards through print -> parse
  // -> print: a fixpoint after one round trip, and the reparse binds as
  // many variables as the original (no wildcard turns into a constant).
  const char* const kTerms[] = {"x",   "y",         "_",
                                "_",   "3",         "'k'",
                                "Zed", "\"it's\"", "'say \"hi\"'"};
  auto random_atom = [&rng, &kTerms](const std::string& relation) {
    std::string atom = relation + "(";
    const size_t arity = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < arity; ++i) {
      atom += (i == 0 ? "" : ", ");
      atom += kTerms[rng.NextBounded(sizeof(kTerms) / sizeof(kTerms[0]))];
    }
    return atom + ")";
  };
  for (int trial = 0; trial < 10; ++trial) {
    const std::string text =
        "q: {" + (rng.NextBool() ? random_atom("P") : std::string()) + "} " +
        random_atom("H") + " :- " + random_atom("B") + ", W(_).";
    QuerySet set;
    auto id = ParseQuery(text, &set);
    ASSERT_TRUE(id.ok()) << text << " -> " << id.status();
    const std::string printed = set.QueryToString(*id);

    QuerySet reparsed;
    auto rid = ParseQuery(printed, &reparsed);
    ASSERT_TRUE(rid.ok()) << printed << " -> " << rid.status();
    EXPECT_EQ(reparsed.QueryToString(*rid), printed) << text;
    EXPECT_EQ(reparsed.query(*rid).Variables().size(),
              set.query(*id).Variables().size())
        << text << " printed as " << printed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnifyProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace entangled
