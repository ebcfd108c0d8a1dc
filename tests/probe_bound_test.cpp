// Tests of bound-pruned F(i,k) probing (DESIGN.md §11.5): the contention-free
// finish lower bound never exceeds the exact Fig. 3 probe at any step of a
// real run, and the rules that prune with it (EDF, greedy energy, the lazy
// EAS scan) choose exactly what a full-row evaluation chooses.  Also the
// checked time horizon every scheduler entry enforces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/audit/decision_log.hpp"
#include "src/baseline/dls.hpp"
#include "src/baseline/edf.hpp"
#include "src/baseline/greedy_energy.hpp"
#include "src/baseline/map_then_schedule.hpp"
#include "src/core/eas.hpp"
#include "src/core/list_common.hpp"
#include "src/ctg/dag_algos.hpp"
#include "src/gen/hetero.hpp"
#include "src/gen/tgff.hpp"
#include "src/util/rng.hpp"

namespace noceas {
namespace {

const PeCatalog& catalog() {
  static const PeCatalog c = make_hetero_catalog(4, 4, 42);
  return c;
}

Platform platform(bool pipeline_guard) {
  return make_mesh_platform(4, 4, catalog().tile_type_names(), 64.0, RoutingAlgorithm::XY,
                            EnergyParams{}, /*torus=*/false, pipeline_guard);
}

/// Downsized Category II-shaped instance (`category` 2 has the tight
/// deadlines under which urgency mode fires) with a quarter of its edges
/// control-only; odd seeds also release every source task at a random
/// instant > 0.  `deadline_scale` < 1 tightens every deadline further.
TaskGraph instance(std::uint64_t seed, int category = 2, double deadline_scale = 1.0) {
  TgffParams params = category_params(category, static_cast<int>(seed % 10));
  params.num_tasks = 60;
  params.num_edges = 120;
  params.control_edge_fraction = 0.25;
  params.seed = 500 + seed;
  TaskGraph g = generate_tgff_like(params, catalog());
  Rng rng(seed);
  for (TaskId t : g.all_tasks()) {
    Task& task = g.task(t);
    if (task.deadline != kNoDeadline && deadline_scale != 1.0) {
      task.deadline = std::max<Time>(1, static_cast<Time>(static_cast<double>(task.deadline) *
                                                          deadline_scale));
    }
    if (seed % 2 == 1 && g.in_degree(t) == 0) {
      const Time release = rng.uniform_int(1, 300);
      if (task.deadline == kNoDeadline || release < task.deadline) task.release = release;
    }
  }
  return g;
}

void expect_same_schedule(const Schedule& a, const Schedule& b, const std::string& what) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size()) << what;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    ASSERT_EQ(a.tasks[i].pe, b.tasks[i].pe) << what << " task " << i;
    ASSERT_EQ(a.tasks[i].start, b.tasks[i].start) << what << " task " << i;
    ASSERT_EQ(a.tasks[i].finish, b.tasks[i].finish) << what << " task " << i;
  }
  ASSERT_EQ(a.comms.size(), b.comms.size()) << what;
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    ASSERT_EQ(a.comms[i].src_pe, b.comms[i].src_pe) << what << " edge " << i;
    ASSERT_EQ(a.comms[i].dst_pe, b.comms[i].dst_pe) << what << " edge " << i;
    ASSERT_EQ(a.comms[i].start, b.comms[i].start) << what << " edge " << i;
    ASSERT_EQ(a.comms[i].duration, b.comms[i].duration) << what << " edge " << i;
  }
}

// ---------------------------------------------------------------------------
// Soundness: bound <= exact probe at every step of real runs
// ---------------------------------------------------------------------------

struct BoundTally {
  std::size_t pairs = 0;   ///< (ready task, PE) pairs checked
  std::size_t tight = 0;   ///< bound == F(i,k)
  std::size_t urgent = 0;  ///< EAS placements taken in urgency mode
};

/// Re-commits the placements of a recorded single-attempt run on fresh
/// tables.  Before each one — i.e. in exactly the state the scheduler
/// decided in — checks finish_lower_bound <= probe_placement().finish for
/// every ready task and every PE.
void check_bound_along(const TaskGraph& g, const Platform& p, const audit::DecisionStream& stream,
                       BoundTally& tally, const std::string& what) {
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  for (const audit::DecisionEvent& ev : stream.events) {
    if (ev.kind != audit::DecisionEvent::Kind::Place) continue;
    for (const std::int32_t r : ev.place.ready) {
      const TaskId t{static_cast<std::size_t>(r)};
      for (PeId k : p.all_pes()) {
        const Time bound = finish_lower_bound(g, p, t, k, s, tables);
        const Time exact = probe_placement(g, p, t, k, s, tables).finish;
        ASSERT_LE(bound, exact) << what << " task " << r << " pe " << k.value;
        ++tally.pairs;
        if (bound == exact) ++tally.tight;
      }
    }
    if (ev.place.rule == "urgent") ++tally.urgent;
    const TaskId chosen{static_cast<std::size_t>(ev.place.task)};
    commit_placement(g, p, chosen, PeId{static_cast<std::size_t>(ev.place.pe)}, s, tables);
    ASSERT_EQ(s.at(chosen).finish, ev.place.finish) << what << ": replay drifted";
  }
}

TEST(ProbeBound, NeverExceedsExactProbeAlongEdfAndEasBaseRuns) {
  BoundTally tally;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Platform p = platform(/*pipeline_guard=*/seed % 4 < 2);
    const TaskGraph g = instance(seed, seed % 3 == 0 ? 1 : 2);
    const std::string what = "seed " + std::to_string(seed);

    audit::DecisionLog edf_log;
    BaselineObs obs;
    obs.decisions = &edf_log;
    (void)schedule_edf(g, p, obs);
    check_bound_along(g, p, edf_log.stream(), tally, what + " edf");

    audit::DecisionLog eas_log;
    EasOptions options;
    options.repair = false;  // one attempt: the stream is one commit sequence
    options.decisions = &eas_log;
    (void)schedule_eas(g, p, options);
    check_bound_along(g, p, eas_log.stream(), tally, what + " eas-base");
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.pairs, 100000u);
  EXPECT_GT(tally.tight, 0u);            // the bound is attained ...
  EXPECT_LT(tally.tight, tally.pairs);   // ... but not trivially exact
  EXPECT_GT(tally.urgent, 0u);           // urgency mode was exercised
}

TEST(ProbeBound, ControlOnlyEdgesAndReleaseCountInTheBound) {
  // a -> c carries data, b -> c is control-only; c is released at 500.
  const Platform p = make_mesh_platform(2, 2, {"A", "B", "C", "D"}, 10.0);
  TaskGraph g(4);
  g.add_task("a", {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_task("b", {300, 300, 300, 300}, {1, 1, 1, 1});
  g.add_task("c", {5, 5, 5, 5}, {1, 1, 1, 1}, kNoDeadline, 0);
  g.add_edge(TaskId{0}, TaskId{2}, 100);  // 10 time units over any route
  g.add_edge(TaskId{1}, TaskId{2}, 0);
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  commit_placement(g, p, TaskId{0}, PeId{0}, s, tables);  // finishes at 10
  commit_placement(g, p, TaskId{1}, PeId{1}, s, tables);  // finishes at 300
  // On PE 3 the control edge from PE 1 binds: 300 + 0, not + a transfer.
  EXPECT_EQ(finish_lower_bound(g, p, TaskId{2}, PeId{3}, s, tables), 305);
  EXPECT_EQ(probe_placement(g, p, TaskId{2}, PeId{3}, s, tables).finish, 305);
  g.task(TaskId{2}).release = 500;
  EXPECT_EQ(finish_lower_bound(g, p, TaskId{2}, PeId{3}, s, tables), 505);
  EXPECT_EQ(probe_placement(g, p, TaskId{2}, PeId{3}, s, tables).finish, 505);
}

// ---------------------------------------------------------------------------
// Pruned rules == full-row rules
// ---------------------------------------------------------------------------

/// Ready-list bookkeeping of the full-row references below.
struct ReadyTracker {
  explicit ReadyTracker(const TaskGraph& graph) : g(graph), preds(graph.num_tasks()) {
    for (TaskId t : g.all_tasks()) {
      preds[t.index()] = g.in_degree(t);
      if (preds[t.index()] == 0) ready.push_back(t);
    }
  }
  void placed(TaskId t) {
    ready.erase(std::find(ready.begin(), ready.end(), t));
    for (EdgeId e : g.out_edges(t)) {
      if (--preds[g.edge(e).dst.index()] == 0) ready.push_back(g.edge(e).dst);
    }
  }
  const TaskGraph& g;
  std::vector<std::size_t> preds;
  std::vector<TaskId> ready;
};

/// EDF as specified: earliest effective deadline first (ties by id), placed
/// on the (F, E, id)-minimum PE, with every F(i,k) of the row probed.
Schedule reference_edf(const TaskGraph& g, const Platform& p) {
  const std::vector<Time> eff = effective_deadlines(g, mean_durations(g));
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  ReadyTracker rt(g);
  while (!rt.ready.empty()) {
    TaskId t = rt.ready.front();
    for (TaskId u : rt.ready) {
      if (eff[u.index()] < eff[t.index()] || (eff[u.index()] == eff[t.index()] && u < t)) t = u;
    }
    PeId best;
    Time best_f = std::numeric_limits<Time>::max();
    Energy best_e = 0.0;
    for (PeId k : p.all_pes()) {
      const Time f = probe_placement(g, p, t, k, s, tables).finish;
      const Energy e = placement_energy(g, p, t, k, s);
      if (f < best_f || (f == best_f && e < best_e)) {
        best = k;
        best_f = f;
        best_e = e;
      }
    }
    commit_placement(g, p, t, best, s, tables);
    rt.placed(t);
  }
  return s;
}

/// Greedy energy as specified: lowest ready id first, placed on the
/// (E, F, id)-minimum PE, with every F(i,k) of the row probed.
Schedule reference_greedy(const TaskGraph& g, const Platform& p) {
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  ReadyTracker rt(g);
  while (!rt.ready.empty()) {
    const TaskId t = *std::min_element(rt.ready.begin(), rt.ready.end());
    PeId best;
    Energy best_e = std::numeric_limits<Energy>::infinity();
    Time best_f = std::numeric_limits<Time>::max();
    for (PeId k : p.all_pes()) {
      const Energy e = placement_energy(g, p, t, k, s);
      const Time f = probe_placement(g, p, t, k, s, tables).finish;
      if (e < best_e || (e == best_e && f < best_f)) {
        best = k;
        best_e = e;
        best_f = f;
      }
    }
    commit_placement(g, p, t, best, s, tables);
    rt.placed(t);
  }
  return s;
}

TEST(ProbeBound, EdfAndGreedyMatchFullRowReference) {
  std::uint64_t edf_probes = 0, greedy_probes = 0, pairs = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Platform p = platform(seed % 2 == 0);
    const TaskGraph g = instance(seed, seed % 3 == 0 ? 1 : 2);
    const std::string what = "seed " + std::to_string(seed);
    const BaselineResult edf = schedule_edf(g, p);
    expect_same_schedule(edf.schedule, reference_edf(g, p), what + " edf");
    const BaselineResult greedy = schedule_greedy_energy(g, p);
    expect_same_schedule(greedy.schedule, reference_greedy(g, p), what + " greedy");
    if (HasFatalFailure()) return;
    edf_probes += edf.probe.probes_issued;
    greedy_probes += greedy.probe.probes_issued;
    pairs += g.num_tasks() * p.num_pes();
  }
  // Pruning actually fires: both rules probe far fewer than the full rows.
  EXPECT_LT(edf_probes, pairs / 2);
  EXPECT_LT(greedy_probes, pairs / 2);
}

TEST(ProbeBound, PruningWorksOnEqualEnergyAndEqualFinishTies) {
  // Four identical PEs: every row is one equal-energy group and the first
  // task's finishes tie everywhere, so the (F, E, id) / (E, F, id) minima
  // come down to the id tie-break.
  const Platform p = make_mesh_platform(2, 2, {"A", "A", "A", "A"}, 10.0);
  TaskGraph g(4);
  for (int i = 0; i < 6; ++i) g.add_task("t" + std::to_string(i), {10, 10, 10, 10}, {1, 1, 1, 1});
  g.add_edge(TaskId{0}, TaskId{3}, 50);
  g.add_edge(TaskId{1}, TaskId{4}, 0);
  g.add_edge(TaskId{2}, TaskId{5}, 50);
  expect_same_schedule(schedule_edf(g, p).schedule, reference_edf(g, p), "edf");
  expect_same_schedule(schedule_greedy_energy(g, p).schedule, reference_greedy(g, p), "greedy");
}

TEST(ProbeBound, LazyEasMatchesEagerUnderTightBudgets) {
  std::uint64_t lazy_probes = 0, eager_probes = 0;
  int urgent_runs = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Platform p = platform(seed % 2 == 0);
    // Deadlines cut to 60-90% of Category II's: urgency mode is common.
    const TaskGraph g = instance(seed, 2, 0.6 + 0.1 * static_cast<double>(seed % 4));
    const std::string what = "seed " + std::to_string(seed);
    for (const bool repair : {false, true}) {
      if (repair && seed % 5 != 0) continue;  // full EAS on a subset: it is slower
      EasOptions lazy;
      lazy.repair = repair;
      EasOptions eager = lazy;
      eager.force_eager_probes = true;
      const EasResult a = schedule_eas(g, p, lazy);
      const EasResult b = schedule_eas(g, p, eager);
      expect_same_schedule(a.schedule, b.schedule, what + (repair ? " eas" : " eas-base"));
      if (HasFatalFailure()) return;
      EXPECT_EQ(a.misses.miss_count, b.misses.miss_count) << what;
      EXPECT_EQ(a.energy.total(), b.energy.total()) << what;
      if (!repair) {
        lazy_probes += a.probe.probes_issued;
        eager_probes += b.probe.probes_issued;
        if (a.misses.miss_count > 0) ++urgent_runs;
      }
    }
  }
  EXPECT_GT(urgent_runs, 0);
  EXPECT_LT(lazy_probes, eager_probes);
}

TEST(ProbeBound, ProbesIssuedIndependentOfDecisionLog) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Platform p = platform(seed % 2 == 0);
    const TaskGraph g = instance(seed);
    const std::string what = "seed " + std::to_string(seed);
    audit::DecisionLog edf_log, greedy_log;
    BaselineObs edf_obs, greedy_obs;
    edf_obs.decisions = &edf_log;
    greedy_obs.decisions = &greedy_log;

    const BaselineResult edf = schedule_edf(g, p);
    const BaselineResult edf_logged = schedule_edf(g, p, edf_obs);
    expect_same_schedule(edf.schedule, edf_logged.schedule, what + " edf");
    EXPECT_EQ(edf.probe.probes_issued, edf_logged.probe.probes_issued) << what;

    const BaselineResult greedy = schedule_greedy_energy(g, p);
    const BaselineResult greedy_logged = schedule_greedy_energy(g, p, greedy_obs);
    expect_same_schedule(greedy.schedule, greedy_logged.schedule, what + " greedy");
    EXPECT_EQ(greedy.probe.probes_issued, greedy_logged.probe.probes_issued) << what;

    // The logs still carry the full rows, every one filled with a real F.
    for (const audit::DecisionStream* stream : {&edf_log.stream(), &greedy_log.stream()}) {
      for (const audit::DecisionEvent& ev : stream->events) {
        if (ev.kind != audit::DecisionEvent::Kind::Place) continue;
        ASSERT_EQ(ev.place.candidates.size(), p.num_pes()) << what;
        for (const audit::CandidateRow& row : ev.place.candidates) {
          EXPECT_GT(row.finish, 0) << what << " task " << row.task << " pe " << row.pe;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checked time horizon
// ---------------------------------------------------------------------------

/// Chain of `n` tasks, each taking `exec` on every PE of a 2x2 mesh.
TaskGraph chain(std::size_t n, Duration exec, Volume volume = 0) {
  TaskGraph g(4);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_task("t" + std::to_string(i), {exec, exec, exec, exec}, {1, 2, 3, 4});
    if (i > 0) g.add_edge(TaskId{i - 1}, TaskId{i}, volume);
  }
  return g;
}

void expect_every_scheduler_throws(const TaskGraph& g, const Platform& p) {
  EasOptions base;
  base.repair = false;
  EXPECT_THROW((void)schedule_eas(g, p), Error);
  EXPECT_THROW((void)schedule_eas(g, p, base), Error);
  EXPECT_THROW((void)schedule_edf(g, p), Error);
  EXPECT_THROW((void)schedule_dls(g, p), Error);
  EXPECT_THROW((void)schedule_greedy_energy(g, p), Error);
  EXPECT_THROW((void)schedule_map_then_list(g, p), Error);
  EXPECT_THROW(require_time_horizon(g, p), Error);
}

TEST(TimeHorizon, RejectsExecTimesOf2To60) {
  // Eight 2^60 tasks in series end at 2^63: one past the largest Time.
  const Platform p = make_mesh_platform(2, 2, {"A", "B", "C", "D"}, 10.0);
  expect_every_scheduler_throws(chain(8, Duration{1} << 60), p);
}

TEST(TimeHorizon, RejectsTransfersAndReleasesPastTheHorizon) {
  const Platform p = make_mesh_platform(2, 2, {"A", "B", "C", "D"}, 1.0);
  // A single transfer whose tick count does not even fit the time type.
  expect_every_scheduler_throws(chain(2, 10, std::numeric_limits<Volume>::max()), p);
  // Transfers that fit one by one but not summed with the exec times.
  expect_every_scheduler_throws(chain(3, Duration{1} << 61, Volume{1} << 61), p);
  // A release late enough that the first execution overflows.
  TaskGraph late = chain(2, 10);
  late.task(TaskId{0}).release = std::numeric_limits<Time>::max() - 15;
  expect_every_scheduler_throws(late, p);
}

TEST(TimeHorizon, AcceptsTheLargestFittingHorizon) {
  // Seven 2^60 tasks in series end at 7 * 2^60 < 2^63: schedulable.
  const Platform p = make_mesh_platform(2, 2, {"A", "B", "C", "D"}, 10.0);
  const TaskGraph g = chain(7, Duration{1} << 60);
  EXPECT_NO_THROW(require_time_horizon(g, p));
  const BaselineResult r = schedule_edf(g, p);
  EXPECT_EQ(r.schedule.at(TaskId{6}).finish, 7 * (Time{1} << 60));
  EasOptions base;
  base.repair = false;
  EXPECT_EQ(schedule_eas(g, p, base).schedule.at(TaskId{6}).finish, 7 * (Time{1} << 60));
}

}  // namespace
}  // namespace noceas
