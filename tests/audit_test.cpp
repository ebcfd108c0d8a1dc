// Decision provenance log + replay auditor tests.
//
// The property at the heart of this file: for every scheduler, the recorded
// decision stream — after a full JSONL round trip — replays to a schedule
// that is bit-identical to the one the scheduler returned, and any tampering
// with the stream (shifted link slot, wrong route, forged deadline
// accounting, swapped PE) is rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/audit/decision_log.hpp"
#include "src/audit/explain.hpp"
#include "src/audit/replay.hpp"
#include "src/baseline/dls.hpp"
#include "src/baseline/greedy_energy.hpp"
#include "src/baseline/map_then_schedule.hpp"
#include "src/core/eas.hpp"
#include "src/core/schedule_io.hpp"
#include "src/core/validator.hpp"
#include "src/gen/tgff.hpp"

namespace noceas {
namespace {

struct Instance {
  TaskGraph g;
  Platform p;
};

/// Small random instance; odd seeds use tight deadlines so some runs miss
/// and search & repair (and EAS budget-tightening retries) leave moves in
/// the stream.
Instance make_instance(std::uint64_t seed) {
  const int rows = 2 + static_cast<int>(seed % 2);
  const int cols = 3;
  const PeCatalog catalog = make_hetero_catalog(rows, cols, seed * 31 + 5);
  TgffParams params;
  params.num_tasks = 26;
  params.num_edges = 52;
  params.avg_layer_width = 5.0;
  params.seed = seed * 977 + 11;
  if (seed % 2 == 1) {
    params.deadline_tightness_min = 0.8;
    params.deadline_tightness_max = 1.1;
    params.interior_deadline_fraction = 0.15;
  }
  return {generate_tgff_like(params, catalog), make_platform_for(catalog, rows, cols)};
}

const char* const kSchedulers[] = {"eas", "eas-base", "edf", "dls", "greedy", "map"};

/// Runs `which` with (optionally) a decision log attached.
Schedule run_scheduler(const std::string& which, const TaskGraph& g, const Platform& p,
                       audit::DecisionLog* log) {
  if (which == "eas" || which == "eas-base") {
    EasOptions options;
    options.repair = which == "eas";
    options.decisions = log;
    return schedule_eas(g, p, options).schedule;
  }
  BaselineObs obs;
  obs.decisions = log;
  if (which == "edf") return schedule_edf(g, p, obs).schedule;
  if (which == "dls") return schedule_dls(g, p, obs).schedule;
  if (which == "greedy") return schedule_greedy_energy(g, p, obs).schedule;
  NOCEAS_REQUIRE(which == "map", "unknown scheduler " << which);
  MapScheduleOptions options;
  options.obs = obs;
  return schedule_map_then_list(g, p, options).result.schedule;
}

void expect_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].pe, b.tasks[i].pe) << "task " << i;
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start) << "task " << i;
    EXPECT_EQ(a.tasks[i].finish, b.tasks[i].finish) << "task " << i;
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    EXPECT_EQ(a.comms[i].src_pe, b.comms[i].src_pe) << "comm " << i;
    EXPECT_EQ(a.comms[i].dst_pe, b.comms[i].dst_pe) << "comm " << i;
    EXPECT_EQ(a.comms[i].start, b.comms[i].start) << "comm " << i;
    EXPECT_EQ(a.comms[i].duration, b.comms[i].duration) << "comm " << i;
  }
}

/// Record -> serialize -> parse -> replay, asserting bit-identity.
void check_replay(const std::string& which, const Instance& in, std::uint64_t seed) {
  audit::DecisionLog log;
  const Schedule s = run_scheduler(which, in.g, in.p, &log);

  std::stringstream jsonl;
  log.write_jsonl(jsonl);
  const audit::DecisionStream stream = audit::read_decision_stream(jsonl);

  const audit::ReplayReport report = audit::replay_decisions(in.g, in.p, stream);
  ASSERT_TRUE(report.ok) << which << " seed " << seed << ": "
                         << (report.issues.empty() ? "?" : report.issues.front());
  expect_identical(report.schedule, s);
}

// ---- 50-seed replay property ----------------------------------------------

TEST(AuditReplay, FiftySeedsAllSchedulersBitIdentical) {
  std::size_t repair_streams = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Instance in = make_instance(seed);
    for (const char* which : kSchedulers) {
      SCOPED_TRACE(std::string(which) + " seed " + std::to_string(seed));
      check_replay(which, in, seed);
    }
    // Count instances whose EAS run engaged repair, to prove the property
    // test exercises the move-replay path at all.
    audit::DecisionLog log;
    (void)run_scheduler("eas", in.g, in.p, &log);
    for (const audit::DecisionEvent& e : log.stream().events) {
      if (e.kind == audit::DecisionEvent::Kind::RepairBegin) {
        ++repair_streams;
        break;
      }
    }
  }
  EXPECT_GT(repair_streams, 0u) << "no seed engaged search & repair; tighten the generator";
}

// ---- bit-neutrality of recording ------------------------------------------

TEST(AuditLog, RecordingIsBitNeutral) {
  const Instance in = make_instance(3);
  for (const char* which : kSchedulers) {
    SCOPED_TRACE(which);
    audit::DecisionLog log;
    const Schedule with = run_scheduler(which, in.g, in.p, &log);
    const Schedule without = run_scheduler(which, in.g, in.p, nullptr);
    expect_identical(with, without);
  }
}

// ---- JSONL round trip ------------------------------------------------------

TEST(AuditLog, JsonlRoundTripIsStable) {
  const Instance in = make_instance(7);
  audit::DecisionLog log;
  (void)run_scheduler("eas", in.g, in.p, &log);

  std::stringstream once;
  log.write_jsonl(once);
  const audit::DecisionStream parsed = audit::read_decision_stream(once);
  std::ostringstream twice;
  audit::write_decision_jsonl(twice, parsed);
  EXPECT_EQ(once.str(), twice.str());
  EXPECT_EQ(parsed.events.size(), log.stream().events.size());
  EXPECT_TRUE(parsed.has_final);
}

TEST(AuditLog, ParserRejectsGarbage) {
  std::istringstream missing_header("{\"type\":\"final\"}\n");
  EXPECT_THROW((void)audit::read_decision_stream(missing_header), Error);
  std::istringstream wrong_schema(
      "{\"schema\":\"noceas.decisions.v999\",\"scheduler\":\"eas\",\"tasks\":1,"
      "\"edges\":0,\"pes\":1}\n");
  EXPECT_THROW((void)audit::read_decision_stream(wrong_schema), Error);
  std::istringstream truncated("{\"schema\":\"noceas.decisions.v1\",\"scheduler\":");
  EXPECT_THROW((void)audit::read_decision_stream(truncated), Error);
}

// ---- negative tests: tampered streams must be rejected ---------------------

class AuditTamper : public ::testing::Test {
 protected:
  void SetUp() override {
    in_ = make_instance(9);  // odd seed: deadlines tight, misses likely
    audit::DecisionLog log;
    (void)run_scheduler("eas", in_.g, in_.p, &log);
    std::stringstream jsonl;
    log.write_jsonl(jsonl);
    stream_ = audit::read_decision_stream(jsonl);
    ASSERT_TRUE(audit::replay_decisions(in_.g, in_.p, stream_).ok);
  }

  /// First Place event with a routed (link-reserving) transaction.
  audit::DecisionEvent* routed_place() {
    for (audit::DecisionEvent& e : stream_.events) {
      if (e.kind != audit::DecisionEvent::Kind::Place) continue;
      for (audit::CommRecord& c : e.place.comms) {
        if (!c.route.empty()) return &e;
      }
    }
    return nullptr;
  }

  void expect_rejected(const char* what) {
    const audit::ReplayReport report = audit::replay_decisions(in_.g, in_.p, stream_);
    EXPECT_FALSE(report.ok) << what << " not detected";
    EXPECT_FALSE(report.issues.empty());
  }

  Instance in_{TaskGraph(1), make_mesh_platform(1, 1, {"NONE"})};
  audit::DecisionStream stream_;
};

TEST_F(AuditTamper, OverlappingLinkSlotRejected) {
  audit::DecisionEvent* e = routed_place();
  ASSERT_NE(e, nullptr);
  for (audit::CommRecord& c : e->place.comms) {
    if (!c.route.empty()) {
      c.start -= 1;  // claim the link slot one cycle early: overlaps/illegal
      break;
    }
  }
  expect_rejected("overlapping link slot");
}

TEST_F(AuditTamper, WrongRouteRejected) {
  audit::DecisionEvent* e = routed_place();
  ASSERT_NE(e, nullptr);
  for (audit::CommRecord& c : e->place.comms) {
    if (!c.route.empty()) {
      c.route.back() = c.route.back() == 0 ? 1 : 0;  // not the XY route
      if (c.route.size() > 1) std::swap(c.route.front(), c.route.back());
      break;
    }
  }
  expect_rejected("wrong route");
}

TEST_F(AuditTamper, ForgedDeadlineAccountingRejected) {
  // A run claiming fewer (or more) misses than its schedule actually has
  // must not pass the audit.
  stream_.final.miss_count += 1;
  expect_rejected("forged deadline accounting");
}

TEST_F(AuditTamper, TamperedFinalStartRejected) {
  ASSERT_FALSE(stream_.final.tasks.empty());
  stream_.final.tasks.front().start += 1;
  expect_rejected("tampered final schedule");
}

TEST_F(AuditTamper, SwappedChosenPeRejected) {
  for (audit::DecisionEvent& e : stream_.events) {
    if (e.kind == audit::DecisionEvent::Kind::Place) {
      e.place.pe = (e.place.pe + 1) % static_cast<std::int32_t>(in_.p.num_pes());
      break;
    }
  }
  expect_rejected("swapped chosen PE");
}

TEST_F(AuditTamper, DroppedPlacementRejected) {
  for (auto it = stream_.events.begin(); it != stream_.events.end(); ++it) {
    if (it->kind == audit::DecisionEvent::Kind::Place) {
      stream_.events.erase(it);
      break;
    }
  }
  expect_rejected("dropped placement");
}

TEST_F(AuditTamper, MissingFinalRejected) {
  stream_.has_final = false;
  expect_rejected("missing final record");
}

// ---- explain ---------------------------------------------------------------

TEST(AuditExplain, RendersCandidateTableAndRule) {
  const Instance in = make_instance(4);
  audit::DecisionLog log;
  (void)run_scheduler("eas", in.g, in.p, &log);
  std::ostringstream os;
  audit::explain_task(os, log.stream(), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("rule="), std::string::npos);
  EXPECT_NE(out.find("F(i,k)"), std::string::npos);
  EXPECT_NE(out.find("ready set"), std::string::npos);
  EXPECT_THROW(audit::explain_task(os, log.stream(), 1 << 20), Error);
}

// ---- schedule text round trip + validate ----------------------------------

TEST(ScheduleIo, RoundTripsExactly) {
  const Instance in = make_instance(6);
  const Schedule s = run_scheduler("edf", in.g, in.p, nullptr);
  std::stringstream text;
  write_schedule_text(text, s);
  const Schedule back = read_schedule_text(text);
  expect_identical(s, back);
  EXPECT_TRUE(validate_schedule(in.g, in.p, back, {.check_deadlines = false}).ok());
}

TEST(ScheduleIo, ValidatorCatchesTamperedImport) {
  const Instance in = make_instance(6);
  Schedule s = run_scheduler("edf", in.g, in.p, nullptr);
  // Two tasks on one PE pushed into overlap: the standalone invariant check
  // on an imported schedule must flag it.
  const auto orders = pe_orders(s, in.p.num_pes());
  for (const auto& order : orders) {
    if (order.size() < 2) continue;
    s.tasks[order[1].index()].start = s.tasks[order[0].index()].start;
    s.tasks[order[1].index()].finish = s.tasks[order[0].index()].finish;
    break;
  }
  std::stringstream text;
  write_schedule_text(text, s);
  const Schedule back = read_schedule_text(text);
  EXPECT_FALSE(validate_schedule(in.g, in.p, back, {.check_deadlines = false}).ok());
}

TEST(ScheduleIo, RejectsMalformedText) {
  std::istringstream bad_keyword("schedule 1 0\nwork 0 0 0 1\n");
  EXPECT_THROW((void)read_schedule_text(bad_keyword), Error);
  std::istringstream truncated("schedule 2 0\ntask 0 0 0 1\n");
  EXPECT_THROW((void)read_schedule_text(truncated), Error);
  EXPECT_THROW((void)schedule_from_string("schedule 1 0 5\ntask 0 0 0 1\n"), Error);
  EXPECT_THROW((void)schedule_from_string("schedule 1 0\ntask 0 0 0 1 1\n"), Error);
  EXPECT_THROW((void)schedule_from_string("schedule 1 0\ntask 1 0 0 1\n"), Error);
  EXPECT_THROW((void)schedule_from_string("schedule 1 0\ntask 0 0 0 1x\n"), Error);
  EXPECT_THROW((void)schedule_from_string("schedule 1 0\ntask 0 0 0 1\ntask 1 0 1 2\n"), Error);
  EXPECT_THROW((void)schedule_from_string("schedule -1 0\n"), Error);
  // A huge header count fails on the missing lines, not on an allocation.
  EXPECT_THROW((void)schedule_from_string("schedule 1000000000000000 0\ntask 0 0 0 1\n"),
               Error);
}

// Placed times outside the schedulers' contract are rejected at read time:
// negative, finishing before the start, or a comm arriving past INT64_MAX.
TEST(ScheduleIo, RejectsTimesOutsideTheHorizonContract) {
  const char* bad[] = {
      "schedule 1 0\ntask 0 0 -1 9\n",
      "schedule 1 0\ntask 0 0 9223372036854775800 30\n",
      "schedule 1 0\ntask 0 0 9223372036854775808 9223372036854775808\n",
      "schedule 2 1\ntask 0 0 0 1\ntask 1 1 5 6\ncomm 0 0 1 -1 3\n",
      "schedule 2 1\ntask 0 0 0 1\ntask 1 1 5 6\ncomm 0 0 1 1 -3\n",
      "schedule 2 1\ntask 0 0 0 1\ntask 1 1 5 6\ncomm 0 0 1 9223372036854775800 8\n",
  };
  for (const char* text : bad) EXPECT_THROW((void)schedule_from_string(text), Error) << text;
  // Unplaced entries (pe = -1) carry no times; the largest representable
  // placed interval is accepted and left to validate_schedule.
  const Schedule s = schedule_from_string(
      "# exported\r\nschedule 2 1\r\ntask 0 -1 0 0\r\n"
      "task 1 0 9223372036854775800 9223372036854775807\r\n"
      "comm 0 -1 0 0 0\r\n");
  EXPECT_FALSE(s.tasks[0].placed());
  EXPECT_EQ(s.tasks[1].start, 9223372036854775800);
  EXPECT_FALSE(s.comms[0].placed());
}

}  // namespace
}  // namespace noceas
