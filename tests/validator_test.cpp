// Unit tests for the independent schedule validator: every corruption kind
// must be detected, and correct schedules must pass.
#include <gtest/gtest.h>

#include "src/core/eas.hpp"
#include "src/core/validator.hpp"
#include "src/gen/tgff.hpp"

namespace noceas {
namespace {

Platform platform2x2() { return make_mesh_platform(2, 2, {"A", "B", "C", "D"}, 10.0); }

/// a -> b with 100 bits (transfer 10 on any remote route).
TaskGraph pair_graph() {
  TaskGraph g(4);
  g.add_task("a", {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_task("b", {10, 10, 10, 10}, {1, 1, 1, 1}, 200);
  g.add_edge(TaskId{0}, TaskId{1}, 100);
  return g;
}

Schedule good_schedule(const TaskGraph& g, const Platform& p) {
  Schedule s(g.num_tasks(), g.num_edges());
  s.tasks[0] = {PeId{0}, 0, 10};
  s.tasks[1] = {PeId{1}, 20, 30};
  s.comms[0] = {PeId{0}, PeId{1}, 10, p.transfer_time(100, PeId{0}, PeId{1})};
  return s;
}

TEST(Validator, AcceptsCorrectSchedule) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  const ValidationReport vr = validate_schedule(g, p, good_schedule(g, p));
  EXPECT_TRUE(vr.ok()) << vr.to_string();
}

TEST(Validator, DetectsUnplacedTask) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.tasks[1] = TaskPlacement{};
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

TEST(Validator, DetectsWrongFinishTime) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.tasks[0].finish = 11;  // exec time is 10
  const ValidationReport vr = validate_schedule(g, p, s);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.to_string().find("finish"), std::string::npos);
}

TEST(Validator, DetectsNegativeStart) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.tasks[0].start = -5;
  s.tasks[0].finish = 5;
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

// start + exec past INT64_MAX (a corrupt or hostile schedule) is reported,
// never computed with signed overflow.
TEST(Validator, ReportsStartPlusExecOverflow) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.tasks[0].start = 9223372036854775800;
  s.tasks[0].finish = 9223372036854775800;
  const ValidationReport vr = validate_schedule(g, p, s);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.to_string().find("overflows"), std::string::npos) << vr.to_string();
}

TEST(Validator, ReportsCommArrivalOverflow) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.comms[0].start = 9223372036854775800;
  const ValidationReport vr = validate_schedule(g, p, s);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.to_string().find("overflows"), std::string::npos) << vr.to_string();
}

TEST(Validator, DetectsDeadlineMiss) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.tasks[1].start = 300;
  s.tasks[1].finish = 310;
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
  // ... unless deadline checking is disabled.
  EXPECT_TRUE(validate_schedule(g, p, s, {.check_deadlines = false}).ok());
}

TEST(Validator, DetectsPeOverlapDefinition4) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  // Put b on the same PE as a, overlapping in time; keep deps satisfied by
  // moving the transfer to local (start right after sender).
  s.tasks[1] = {PeId{0}, 5, 15};
  s.comms[0] = {PeId{0}, PeId{0}, 10, 0};
  const ValidationReport vr = validate_schedule(g, p, s, {.check_deadlines = false});
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.to_string().find("overlap"), std::string::npos);
}

TEST(Validator, DetectsCommBeforeSenderFinish) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.comms[0].start = 5;  // sender finishes at 10
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

TEST(Validator, DetectsReceiverBeforeArrival) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.tasks[1].start = 15;  // arrival is 20
  s.tasks[1].finish = 25;
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

TEST(Validator, DetectsEndpointMismatch) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.comms[0].dst_pe = PeId{2};  // receiver actually on PE 1
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

TEST(Validator, DetectsWrongDuration) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.comms[0].duration = 3;  // should be 10
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

TEST(Validator, DetectsLinkContentionDefinition3) {
  // Two transactions crossing the same link at the same time.
  const Platform p = platform2x2();
  TaskGraph g(4);
  g.add_task("a", {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_task("b", {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_task("c", {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_task("d", {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_edge(TaskId{0}, TaskId{2}, 100);  // 0 -> 1 tile-wise below
  g.add_edge(TaskId{1}, TaskId{3}, 100);
  Schedule s(g.num_tasks(), g.num_edges());
  // Both senders on tile 0, both receivers on tile 1: same single link.
  s.tasks[0] = {PeId{0}, 0, 10};
  s.tasks[1] = {PeId{0}, 10, 20};
  s.tasks[2] = {PeId{1}, 30, 40};
  s.tasks[3] = {PeId{1}, 40, 50};
  s.comms[0] = {PeId{0}, PeId{1}, 15, 10};  // [15, 25)
  s.comms[1] = {PeId{0}, PeId{1}, 20, 10};  // [20, 30) -- overlaps on the link
  const ValidationReport vr = validate_schedule(g, p, s, {.check_deadlines = false});
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.to_string().find("overlap on link"), std::string::npos);
}

TEST(Validator, DetectsArityMismatch) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s(1, 0);  // wrong sizes
  EXPECT_FALSE(validate_schedule(g, p, s).ok());
}

TEST(Validator, ReportListsAllIssues) {
  const TaskGraph g = pair_graph();
  const Platform p = platform2x2();
  Schedule s = good_schedule(g, p);
  s.comms[0].start = 5;
  s.comms[0].duration = 3;
  const ValidationReport vr = validate_schedule(g, p, s);
  EXPECT_GE(vr.issues.size(), 2u);
}

// Fuzz-ish property: random mutations of a known-good EAS schedule are
// either still valid (rare) or detected — validator never crashes.
class ValidatorFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ValidatorFuzz, SurvivesRandomMutations) {
  static const PeCatalog catalog = make_hetero_catalog(4, 4, 42);
  const Platform p = make_platform_for(catalog, 4, 4);
  TgffParams params = category_params(1, 2);
  params.num_tasks = 60;
  params.num_edges = 120;
  const TaskGraph g = generate_tgff_like(params, catalog);
  const EasResult r = schedule_eas(g, p);

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  for (int i = 0; i < 50; ++i) {
    Schedule mutated = r.schedule;
    const auto which = rng.uniform_int(0, 3);
    const auto ti = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.num_tasks()) - 1));
    switch (which) {
      case 0: mutated.tasks[ti].start += rng.uniform_int(-50, 50); break;
      case 1: mutated.tasks[ti].finish += rng.uniform_int(-50, 50); break;
      case 2:
        mutated.tasks[ti].pe = PeId{static_cast<std::int32_t>(rng.uniform_int(0, 15))};
        break;
      default:
        if (g.num_edges() > 0) {
          const auto ei = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(g.num_edges()) - 1));
          mutated.comms[ei].start += rng.uniform_int(-50, 50);
        }
    }
    // Must not throw; outcome can be either way.
    (void)validate_schedule(g, p, mutated, {.check_deadlines = false});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValidatorFuzz, ::testing::Range(1, 5));

}  // namespace
}  // namespace noceas
