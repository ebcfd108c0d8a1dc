#include "src/baseline/dls.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/core/list_common.hpp"
#include "src/core/obs_export.hpp"
#include "src/core/resource_tables.hpp"
#include "src/ctg/dag_algos.hpp"

namespace noceas {

BaselineResult schedule_dls(const TaskGraph& g, const Platform& p, const BaselineObs& obs) {
  NOCEAS_REQUIRE(g.num_pes() == p.num_pes(), "CTG/platform PE count mismatch");
  require_time_horizon(g, p);
  const auto t0 = std::chrono::steady_clock::now();
  obs::Tracer* const tr = obs.tracer;
  OBS_SPAN(tr, "dls.schedule", {obs::Arg("tasks", g.num_tasks()), obs::Arg("pes", p.num_pes())});

  const auto mean = mean_durations(g);
  const auto sl = static_levels(g, mean);
  audit::DecisionLog* const dlog = obs.decisions;
  if (dlog != nullptr) dlog->begin_run("dls", g.num_tasks(), g.num_edges(), p.num_pes());

  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  // DLS probes every (ready task, PE) pair each iteration — the same access
  // pattern as the EAS inner loop — so it shares the versioned probe cache.
  ProbeEngine::Options engine_options;
  engine_options.tracer = obs.tracer;
  engine_options.metrics = obs.metrics;
  ProbeEngine engine(g, p, tables, engine_options);

  std::vector<std::size_t> unplaced_preds(g.num_tasks());
  ReadyList ready;
  for (TaskId t : g.all_tasks()) {
    unplaced_preds[t.index()] = g.in_degree(t);
    if (unplaced_preds[t.index()] == 0) ready.seed(t);
  }

  std::size_t placed = 0;
  while (placed < g.num_tasks()) {
    NOCEAS_REQUIRE(!ready.empty(), "no ready task but unplaced tasks remain (cycle?)");

    // Maximize DL(i,k) over all ready tasks and PEs.
    engine.refresh(ready.items(), s);
    TaskId best_task;
    PeId best_pe;
    double best_dl = -std::numeric_limits<double>::infinity();
    for (TaskId t : ready) {
      for (PeId k : p.all_pes()) {
        const ProbeResult& pr = engine.result(t, k);
        const double delta =
            mean[t.index()] - static_cast<double>(g.task(t).exec_time[k.index()]);
        const double dl = sl[t.index()] - static_cast<double>(pr.start) + delta;
        if (dl > best_dl) {
          best_dl = dl;
          best_task = t;
          best_pe = k;
        }
      }
    }

    OBS_INSTANT(tr, "dls.decision", obs::Arg("task", best_task.value),
                obs::Arg("pe", best_pe.value), obs::Arg("dynamic_level", best_dl));
    commit_placement(g, p, best_task, best_pe, s, tables);
    ++placed;

    if (dlog != nullptr) {
      // DLS is deadline-blind: every row is feasible, the score is DL(i,k).
      // The chosen task is recorded before the ready list drops it below.
      audit::PlacementDecision d = make_placement_record(g, p, best_task, best_pe, kNoDeadline,
                                                         "dls", ready.items(), s);
      d.candidates.reserve(ready.size() * p.num_pes());
      for (TaskId t : ready) {
        for (PeId k : p.all_pes()) {
          const ProbeResult& pr = engine.result(t, k);
          const double delta =
              mean[t.index()] - static_cast<double>(g.task(t).exec_time[k.index()]);
          audit::CandidateRow row;
          row.task = t.value;
          row.pe = k.value;
          row.finish = pr.finish;
          row.energy = engine.energy(t, k, s);  // pure + memoized: bit-neutral
          row.score = sl[t.index()] - static_cast<double>(pr.start) + delta;
          d.candidates.push_back(row);
        }
      }
      dlog->record_placement(std::move(d));
    }

    ready.erase(best_task);
    for (EdgeId e : g.out_edges(best_task)) {
      const TaskId succ = g.edge(e).dst;
      if (--unplaced_preds[succ.index()] == 0) ready.insert(succ);
    }
  }

  BaselineResult result;
  result.schedule = std::move(s);
  result.misses = deadline_misses(g, result.schedule);
  result.energy = compute_energy(g, p, result.schedule);
  result.probe = engine.stats();
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (dlog != nullptr) {
    dlog->record_final(make_final_record(result.schedule, result.energy, result.misses));
  }
  if (obs.metrics != nullptr) {
    export_probe_stats(result.probe, *obs.metrics);
    export_schedule_metrics(g, p, result.schedule, *obs.metrics);
  }
  return result;
}

}  // namespace noceas
