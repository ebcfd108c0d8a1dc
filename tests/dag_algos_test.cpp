// Unit + property tests for the DAG algorithms used by slack budgeting and
// the baseline schedulers.
#include <gtest/gtest.h>

#include <cmath>

#include "src/ctg/dag_algos.hpp"
#include "src/gen/tgff.hpp"

namespace noceas {
namespace {

/// Diamond: a -> {b, c} -> d, plus deadline on d.
TaskGraph diamond() {
  TaskGraph g(1);
  g.add_task("a", {10}, {0.0});
  g.add_task("b", {20}, {0.0});
  g.add_task("c", {5}, {0.0});
  g.add_task("d", {10}, {0.0}, 100);
  g.add_edge(TaskId{0}, TaskId{1}, 1);
  g.add_edge(TaskId{0}, TaskId{2}, 1);
  g.add_edge(TaskId{1}, TaskId{3}, 1);
  g.add_edge(TaskId{2}, TaskId{3}, 1);
  return g;
}

TEST(TopologicalOrder, RespectsEdges) {
  const TaskGraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].index()] = i;
  for (EdgeId e : g.all_edges()) {
    EXPECT_LT(pos[g.edge(e).src.index()], pos[g.edge(e).dst.index()]);
  }
}

TEST(TopologicalOrder, ThrowsOnCycle) {
  TaskGraph g(1);
  g.add_task("a", {1}, {0.0});
  g.add_task("b", {1}, {0.0});
  g.add_edge(TaskId{0}, TaskId{1}, 1);
  g.add_edge(TaskId{1}, TaskId{0}, 1);
  EXPECT_THROW(topological_order(g), Error);
}

TEST(ForwardPass, DiamondTimes) {
  const TaskGraph g = diamond();
  const auto fp = forward_pass(g, mean_durations(g));
  EXPECT_DOUBLE_EQ(fp.earliest_start[0], 0.0);
  EXPECT_DOUBLE_EQ(fp.earliest_finish[0], 10.0);
  EXPECT_DOUBLE_EQ(fp.earliest_finish[1], 30.0);
  EXPECT_DOUBLE_EQ(fp.earliest_finish[2], 15.0);
  EXPECT_DOUBLE_EQ(fp.earliest_start[3], 30.0);  // bound by b
  EXPECT_DOUBLE_EQ(fp.earliest_finish[3], 40.0);
  EXPECT_EQ(fp.binding_pred[3], TaskId{1});
}

TEST(BackwardPass, DiamondTimes) {
  const TaskGraph g = diamond();
  const auto bp = backward_pass(g, mean_durations(g));
  EXPECT_DOUBLE_EQ(bp.latest_finish[3], 100.0);
  EXPECT_DOUBLE_EQ(bp.latest_finish[1], 90.0);
  EXPECT_DOUBLE_EQ(bp.latest_finish[2], 90.0);
  EXPECT_DOUBLE_EQ(bp.latest_finish[0], 70.0);  // through b (90 - 20)
  EXPECT_EQ(bp.binding_succ[0], TaskId{1});
}

TEST(BackwardPass, NoDeadlineIsInfinite) {
  TaskGraph g(1);
  g.add_task("a", {10}, {0.0});
  const auto bp = backward_pass(g, mean_durations(g));
  EXPECT_TRUE(std::isinf(bp.latest_finish[0]));
}

TEST(CriticalPath, Diamond) {
  const TaskGraph g = diamond();
  EXPECT_DOUBLE_EQ(critical_path_length(g, mean_durations(g)), 40.0);
}

TEST(StaticLevels, Diamond) {
  const TaskGraph g = diamond();
  const auto sl = static_levels(g, mean_durations(g));
  EXPECT_DOUBLE_EQ(sl[3], 10.0);
  EXPECT_DOUBLE_EQ(sl[1], 30.0);
  EXPECT_DOUBLE_EQ(sl[2], 15.0);
  EXPECT_DOUBLE_EQ(sl[0], 40.0);
}

TEST(EffectiveDeadlines, PropagateBackwards) {
  const TaskGraph g = diamond();
  const auto eff = effective_deadlines(g, mean_durations(g));
  EXPECT_EQ(eff[3], 100);
  EXPECT_EQ(eff[1], 90);
  EXPECT_EQ(eff[2], 90);
  EXPECT_EQ(eff[0], 70);
}

TEST(EffectiveDeadlines, NoDeadlineStaysOpen) {
  TaskGraph g(1);
  g.add_task("a", {10}, {0.0});
  g.add_task("b", {10}, {0.0});
  g.add_edge(TaskId{0}, TaskId{1}, 1);
  const auto eff = effective_deadlines(g, mean_durations(g));
  EXPECT_EQ(eff[0], kNoDeadline);
  EXPECT_EQ(eff[1], kNoDeadline);
}

TEST(EffectiveDeadlines, OwnDeadlineBeatsSuccessors) {
  TaskGraph g(1);
  g.add_task("a", {10}, {0.0}, 15);
  g.add_task("b", {10}, {0.0}, 1000);
  g.add_edge(TaskId{0}, TaskId{1}, 1);
  const auto eff = effective_deadlines(g, mean_durations(g));
  EXPECT_EQ(eff[0], 15);
}

TEST(Reachability, DirectAndTransitive) {
  const TaskGraph g = diamond();
  EXPECT_TRUE(is_reachable(g, TaskId{0}, TaskId{3}));
  EXPECT_TRUE(is_reachable(g, TaskId{0}, TaskId{0}));
  EXPECT_FALSE(is_reachable(g, TaskId{1}, TaskId{2}));
  EXPECT_FALSE(is_reachable(g, TaskId{3}, TaskId{0}));
}

// Property: the dense matrix agrees with BFS on random graphs.  Sizes 60,
// 110, ..., 260 put rows at one to five 64-bit words, with queries on both
// sides of every word boundary.
class ReachabilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReachabilityProperty, MatrixMatchesBfs) {
  const PeCatalog catalog = make_hetero_catalog(2, 2, 1);
  TgffParams params;
  params.num_tasks = 10 + 50 * static_cast<std::size_t>(GetParam());
  params.num_edges = 2 * params.num_tasks;
  params.seed = static_cast<std::uint64_t>(GetParam());
  const TaskGraph g = generate_tgff_like(params, catalog);
  const ReachabilityMatrix m(g);
  const auto last = static_cast<std::int64_t>(g.num_tasks()) - 1;
  Rng rng(params.seed ^ 0xabcd);
  for (int i = 0; i < 2000; ++i) {
    const TaskId a{static_cast<std::int32_t>(rng.uniform_int(0, last))};
    const TaskId b{static_cast<std::int32_t>(rng.uniform_int(0, last))};
    ASSERT_EQ(m.reachable(a, b), is_reachable(g, a, b))
        << "a=" << a.value << " b=" << b.value;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityProperty, ::testing::Range(1, 6));

// Property: forward pass is monotone along edges for random graphs.
class ForwardPassProperty : public ::testing::TestWithParam<int> {};

TEST_P(ForwardPassProperty, FinishAfterPredecessors) {
  const PeCatalog catalog = make_hetero_catalog(2, 2, 1);
  TgffParams params;
  params.num_tasks = 80;
  params.num_edges = 160;
  params.seed = static_cast<std::uint64_t>(GetParam()) * 77;
  const TaskGraph g = generate_tgff_like(params, catalog);
  const auto fp = forward_pass(g, mean_durations(g));
  for (EdgeId e : g.all_edges()) {
    EXPECT_GE(fp.earliest_start[g.edge(e).dst.index()],
              fp.earliest_finish[g.edge(e).src.index()] - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardPassProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace noceas
