// Incremental constraint evaluation: the checker must answer from cache
// when nothing an individual constraint could read has changed, re-evaluate
// exactly what a mutation dirtied, and fall back to a full sweep on
// structural edits — all without ever changing check()'s verdicts.
#include <gtest/gtest.h>

#include <thread>

#include "acme/adl.hpp"
#include "acme/expr_parser.hpp"
#include "acme/script.hpp"
#include "model/revision.hpp"
#include "model/transaction.hpp"
#include "repair/constraint.hpp"
#include "repair/scripts.hpp"

namespace arcadia::repair {
namespace {

model::System make_system(int clients) {
  model::System sys("IncrementalRig");
  for (int c = 1; c <= clients; ++c) {
    auto& client =
        sys.add_component("User" + std::to_string(c), "ClientT");
    client.set_property("averageLatency", model::PropertyValue(0.5));
    client.set_property("maxLatency", model::PropertyValue(2.0));
  }
  return sys;
}

TEST(ExpressionLocalityTest, ThresholdComparisonsAreLocal) {
  auto expr = acme::parse_expression("averageLatency <= maxLatency");
  EXPECT_TRUE(expression_is_local(*expr));
  auto arith = acme::parse_expression("!(averageLatency * 2.0 > 4.0)");
  EXPECT_TRUE(expression_is_local(*arith));
}

TEST(ExpressionLocalityTest, ModelReachingFormsAreNotLocal) {
  EXPECT_FALSE(expression_is_local(
      *acme::parse_expression("self.name == \"x\"")));
  EXPECT_FALSE(expression_is_local(
      *acme::parse_expression("size(self.Components) > 0")));
  EXPECT_FALSE(expression_is_local(*acme::parse_expression(
      "exists g : ServerGroupT in self.Components | g.load > maxServerLoad")));
}

TEST(IncrementalCheckTest, SecondSweepIsAllCacheHits) {
  model::System sys = make_system(4);
  ConstraintChecker checker(sys);
  for (int c = 1; c <= 4; ++c) {
    checker.add_constraint("lat:User" + std::to_string(c),
                           "User" + std::to_string(c),
                           "averageLatency <= maxLatency", "fix");
  }
  EXPECT_TRUE(checker.check().empty());
  EXPECT_EQ(checker.check_stats().evaluations, 4u);
  EXPECT_TRUE(checker.check().empty());
  EXPECT_EQ(checker.check_stats().evaluations, 4u);  // nothing re-evaluated
  EXPECT_EQ(checker.check_stats().cache_hits, 4u);
}

TEST(IncrementalCheckTest, OnlyDirtyElementReevaluates) {
  model::System sys = make_system(4);
  ConstraintChecker checker(sys);
  for (int c = 1; c <= 4; ++c) {
    checker.add_constraint("lat:User" + std::to_string(c),
                           "User" + std::to_string(c),
                           "averageLatency <= maxLatency", "fix");
  }
  checker.check();
  sys.component("User2").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  auto violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].element, "User2");
  EXPECT_DOUBLE_EQ(violations[0].observed, 9.0);
  // 4 initial evaluations + 1 re-evaluation of the dirtied element.
  EXPECT_EQ(checker.check_stats().evaluations, 5u);
  EXPECT_EQ(checker.check_stats().cache_hits, 3u);
}

TEST(IncrementalCheckTest, CachedViolationKeepsReporting) {
  model::System sys = make_system(2);
  ConstraintChecker checker(sys);
  checker.add_constraint("lat:User1", "User1",
                         "averageLatency <= maxLatency", "fix");
  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(5.0));
  ASSERT_EQ(checker.check().size(), 1u);
  // No further mutation: the violation must still be reported, from cache.
  auto again = checker.check();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_DOUBLE_EQ(again[0].observed, 5.0);
  EXPECT_GE(checker.check_stats().cache_hits, 1u);
}

TEST(IncrementalCheckTest, StructuralEditForcesFullSweep) {
  model::System sys = make_system(3);
  ConstraintChecker checker(sys);
  for (int c = 1; c <= 3; ++c) {
    checker.add_constraint("lat:User" + std::to_string(c),
                           "User" + std::to_string(c),
                           "averageLatency <= maxLatency", "fix");
  }
  checker.check();
  sys.add_component("Newcomer", "ClientT");
  checker.check();
  EXPECT_EQ(checker.check_stats().full_sweeps, 2u);  // first sweep + this one
  EXPECT_EQ(checker.check_stats().evaluations, 6u);
}

TEST(IncrementalCheckTest, GlobalRebindInvalidatesCache) {
  model::System sys = make_system(1);
  ConstraintChecker checker(sys);
  checker.bind_global("limit", acme::EvalValue(2.0));
  checker.add_constraint("lat:User1", "User1", "averageLatency <= limit",
                         "fix");
  EXPECT_TRUE(checker.check().empty());
  checker.bind_global("limit", acme::EvalValue(0.1));
  auto violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);  // threshold moved under the cached value
}

TEST(IncrementalCheckTest, NonLocalConstraintSeesOtherElements) {
  model::System sys = make_system(2);
  auto& grp = sys.add_component("Grp", "ServerGroupT");
  grp.set_property("load", model::PropertyValue(1.0));
  ConstraintChecker checker(sys);
  checker.bind_global("maxServerLoad", acme::EvalValue(6.0));
  checker.add_constraint(
      "overload", "User1",
      "!(exists g : ServerGroupT in self.Components | g.load > maxServerLoad)",
      "fix");
  EXPECT_TRUE(checker.check().empty());
  // Mutating an element the constraint is NOT attached to must still be
  // seen: the constraint is non-local, so the property clock re-triggers it.
  grp.set_property("load", model::PropertyValue(9.0));
  EXPECT_EQ(checker.check().size(), 1u);
}

TEST(IncrementalCheckTest, RemovedElementStillSkipped) {
  model::System sys = make_system(2);
  ConstraintChecker checker(sys);
  checker.add_constraint("lat:User1", "User1",
                         "averageLatency <= maxLatency", "fix");
  checker.check();
  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  sys.remove_component("User1");
  EXPECT_TRUE(checker.check().empty());
}

TEST(RollbackStampTest, PropertyRollbackRestoresStampAndCache) {
  // A rolled-back property-only transaction restores the model exactly, so
  // the element's stamp must be back where it was and the next sweep must
  // answer every local constraint from cache — no full-sweep storm.
  model::System sys = make_system(3);
  ConstraintChecker checker(sys);
  for (int c = 1; c <= 3; ++c) {
    checker.add_constraint("lat:User" + std::to_string(c),
                           "User" + std::to_string(c),
                           "averageLatency <= maxLatency", "fix");
  }
  EXPECT_TRUE(checker.check().empty());
  const std::uint64_t evals = checker.check_stats().evaluations;
  const std::uint64_t stamp = sys.component("User1").property_stamp();
  {
    model::Transaction txn(sys);
    txn.set_property({}, model::ElementKind::Component, "User1", "",
                     "averageLatency", model::PropertyValue(9.0));
    txn.set_property({}, model::ElementKind::Component, "User1", "",
                     "averageLatency", model::PropertyValue(12.0));
    txn.rollback();
  }
  EXPECT_EQ(sys.component("User1").property_stamp(), stamp);
  EXPECT_DOUBLE_EQ(
      sys.component("User1").property("averageLatency").as_double(), 0.5);
  EXPECT_TRUE(checker.check().empty());
  EXPECT_EQ(checker.check_stats().evaluations, evals);  // all cache hits
}

TEST(ClockViewTest, HidesOtherThreadsChangesButCountsOwn) {
  model::System mine = make_system(1);
  model::System theirs = make_system(1);
  const std::uint64_t structure = model::structure_clock();
  const std::uint64_t property = model::property_clock();
  model::ClockView view(structure, property);
  EXPECT_EQ(model::structure_clock(), structure);
  EXPECT_EQ(model::property_clock(), property);
  // Another thread's write and structural edit (a concurrently flushing or
  // repairing shard) are invisible.
  std::thread other([&theirs] {
    theirs.component("User1").set_property("averageLatency",
                                           model::PropertyValue(7.0));
    theirs.add_component("User9", "ClientT");
  });
  other.join();
  EXPECT_EQ(model::structure_clock(), structure);
  EXPECT_EQ(model::property_clock(), property);
  // This thread's own changes advance the view one for one.
  mine.component("User1").set_property("averageLatency",
                                        model::PropertyValue(1.0));
  mine.component("User1").set_property("averageLatency",
                                        model::PropertyValue(1.5));
  mine.add_component("User2", "ClientT");
  EXPECT_EQ(model::property_clock(), property + 2);
  EXPECT_EQ(model::structure_clock(), structure + 1);
}

TEST(ClockViewTest, NonLocalReuseIgnoresOtherShardsChanges) {
  model::System sys = make_system(2);
  model::System other = make_system(1);
  auto& grp = sys.add_component("Grp", "ServerGroupT");
  grp.set_property("load", model::PropertyValue(1.0));
  ConstraintChecker checker(sys);
  checker.bind_global("maxServerLoad", acme::EvalValue(6.0));
  checker.add_constraint(
      "overload", "User1",
      "!(exists g : ServerGroupT in self.Components | g.load > maxServerLoad)",
      "fix");
  const std::uint64_t structure = model::structure_clock();
  const std::uint64_t property = model::property_clock();
  {
    model::ClockView view(structure, property);
    EXPECT_TRUE(checker.check().empty());
  }
  // A write and an edit to an unrelated model between two sweeps pinned to
  // the same barrier clocks (another shard flushing and repairing mid-sweep)
  // invalidate neither the non-local verdict nor the structure memo...
  other.component("User1").set_property("averageLatency",
                                         model::PropertyValue(3.0));
  other.add_component("User7", "ClientT");
  {
    model::ClockView view(structure, property);
    EXPECT_TRUE(checker.check().empty());
  }
  EXPECT_EQ(checker.check_stats().evaluations, 1u);
  EXPECT_EQ(checker.check_stats().cache_hits, 1u);
  EXPECT_EQ(checker.check_stats().full_sweeps, 1u);
  // ...but a write this thread makes under the view does, and so do the
  // next barrier's clocks.
  {
    model::ClockView view(structure, property);
    grp.set_property("load", model::PropertyValue(9.0));
    EXPECT_EQ(checker.check().size(), 1u);
  }
  EXPECT_EQ(checker.check_stats().evaluations, 2u);
  {
    model::ClockView view(model::structure_clock(), model::property_clock());
    EXPECT_EQ(checker.check().size(), 1u);
  }
  EXPECT_EQ(checker.check_stats().evaluations, 3u);
  EXPECT_EQ(checker.check_stats().full_sweeps, 2u);
}

TEST(RollbackStampTest, MidTransactionSweepCannotGoStaleClean) {
  // The dangerous direction: a sweep runs while a transaction is open and
  // memoises a *satisfied* verdict of the in-flight value; the rollback then
  // rewinds the element's stamp below what the memo recorded. The rewound
  // stamp must read as dirty (exact-match comparison), or the violation the
  // rollback restored would be silently swallowed.
  model::System sys = make_system(1);
  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  ConstraintChecker checker(sys);
  checker.add_constraint("lat:User1", "User1",
                         "averageLatency <= maxLatency", "fix");
  ASSERT_EQ(checker.check().size(), 1u);  // violating before the txn
  {
    model::Transaction txn(sys);
    txn.set_property({}, model::ElementKind::Component, "User1", "",
                     "averageLatency", model::PropertyValue(0.5));
    EXPECT_TRUE(checker.check().empty());  // mid-txn sweep sees the fix
    txn.rollback();                        // ... which is then discarded
  }
  auto after = checker.check();
  ASSERT_EQ(after.size(), 1u);  // stale-clean would report nothing here
  EXPECT_DOUBLE_EQ(after[0].observed, 9.0);
}

TEST(RollbackStampTest, RollbackAfterStructuralEditRestoresVerdicts) {
  // Structural + property edits rolled back together: the model text is
  // bit-identical to before, the structure clock forces one full sweep (safe
  // fallback, not a storm), and the verdicts reproduce the pre-transaction
  // state.
  model::System sys = make_system(2);
  sys.component("User2").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  ConstraintChecker checker(sys);
  for (int c = 1; c <= 2; ++c) {
    checker.add_constraint("lat:User" + std::to_string(c),
                           "User" + std::to_string(c),
                           "averageLatency <= maxLatency", "fix");
  }
  ASSERT_EQ(checker.check().size(), 1u);
  const std::string before = acme::print_system(sys);
  {
    model::Transaction txn(sys);
    txn.add_component("Extra", "ClientT");
    txn.add_connector("ExtraConn", "LinkT");
    txn.set_property({}, model::ElementKind::Component, "User2", "",
                     "averageLatency", model::PropertyValue(0.1));
    txn.set_property({}, model::ElementKind::Component, "Extra", "",
                     "load", model::PropertyValue(1.0));
    txn.rollback();
  }
  EXPECT_EQ(acme::print_system(sys), before);
  auto after = checker.check();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].element, "User2");
  EXPECT_DOUBLE_EQ(after[0].observed, 9.0);
}

TEST(IncrementalCheckTest, VerdictsMatchAFreshChecker) {
  // The incremental cache must be unobservable: after an arbitrary mutation
  // sequence, a warmed checker and a cold one agree exactly.
  model::System sys = make_system(5);
  ConstraintChecker warm(sys);
  for (int c = 1; c <= 5; ++c) {
    warm.add_constraint("lat:User" + std::to_string(c),
                        "User" + std::to_string(c),
                        "averageLatency <= maxLatency", "fix");
  }
  warm.check();
  sys.component("User3").set_property("averageLatency",
                                      model::PropertyValue(8.0));
  warm.check();
  sys.component("User3").set_property("averageLatency",
                                      model::PropertyValue(0.1));
  sys.component("User5").set_property("maxLatency",
                                      model::PropertyValue(0.01));
  auto warm_result = warm.check();

  ConstraintChecker cold(sys);
  for (int c = 1; c <= 5; ++c) {
    cold.add_constraint("lat:User" + std::to_string(c),
                        "User" + std::to_string(c),
                        "averageLatency <= maxLatency", "fix");
  }
  auto cold_result = cold.check();
  ASSERT_EQ(warm_result.size(), cold_result.size());
  for (std::size_t i = 0; i < warm_result.size(); ++i) {
    EXPECT_EQ(warm_result[i].element, cold_result[i].element);
    EXPECT_DOUBLE_EQ(warm_result[i].observed, cold_result[i].observed);
  }
}

}  // namespace
}  // namespace arcadia::repair
