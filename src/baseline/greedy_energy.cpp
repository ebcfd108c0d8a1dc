#include "src/baseline/greedy_energy.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/core/list_common.hpp"
#include "src/core/obs_export.hpp"
#include "src/core/resource_tables.hpp"

namespace noceas {

BaselineResult schedule_greedy_energy(const TaskGraph& g, const Platform& p,
                                      const BaselineObs& obs) {
  NOCEAS_REQUIRE(g.num_pes() == p.num_pes(), "CTG/platform PE count mismatch");
  require_time_horizon(g, p);
  const auto t0 = std::chrono::steady_clock::now();
  obs::Tracer* const tr = obs.tracer;
  OBS_SPAN(tr, "greedy.schedule",
           {obs::Arg("tasks", g.num_tasks()), obs::Arg("pes", p.num_pes())});

  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  TentativeTables scratch(tables);  // reused probe overlay; tables stay const
  CommScratch comm_scratch;         // reused Fig. 3 buffers
  ProbeStats stats;
  audit::DecisionLog* const dlog = obs.decisions;
  if (dlog != nullptr) dlog->begin_run("greedy", g.num_tasks(), g.num_edges(), p.num_pes());
  std::vector<TaskId> ready_snapshot;  // provenance only; empty when no log
  std::vector<Time> finishes(p.num_pes());  // kUnsetTime = not probed
  std::vector<Energy> energies(p.num_pes());
  std::vector<std::pair<Energy, std::uint32_t>> by_energy;  // (energy, PE id)
  by_energy.reserve(p.num_pes());

  std::vector<std::size_t> unplaced_preds(g.num_tasks());
  ReadyList ready;
  for (TaskId t : g.all_tasks()) {
    unplaced_preds[t.index()] = g.in_degree(t);
    if (unplaced_preds[t.index()] == 0) ready.seed(t);
  }

  std::size_t placed = 0;
  while (placed < g.num_tasks()) {
    NOCEAS_REQUIRE(!ready.empty(), "no ready task but unplaced tasks remain (cycle?)");
    // FIFO over ids: take the lowest ready id, place at min energy
    // (ties towards earlier finish).
    const TaskId t = ready.items().front();
    if (dlog != nullptr) ready_snapshot = ready.items();
    ready.erase_at(0);

    // Minimum energy, ties towards earlier finish, then lower id: the
    // lexicographic (E, F, id) minimum.  Finish only breaks ties inside the
    // minimum-energy group, so only that group is probed, and a group of
    // one needs no probe at all.
    by_energy.clear();
    for (PeId k : p.all_pes()) {
      energies[k.index()] = placement_energy(g, p, t, k, s);
      by_energy.emplace_back(energies[k.index()], static_cast<std::uint32_t>(k.index()));
    }
    std::sort(by_energy.begin(), by_energy.end());
    std::size_t group = 1;
    while (group < by_energy.size() && by_energy[group].first == by_energy[0].first) ++group;
    std::fill(finishes.begin(), finishes.end(), kUnsetTime);
    PeId best_pe{static_cast<std::size_t>(by_energy[0].second)};
    if (group > 1) {
      Time best_f = std::numeric_limits<Time>::max();
      for (std::size_t i = 0; i < group; ++i) {  // ascending id within the group
        const PeId k{static_cast<std::size_t>(by_energy[i].second)};
        const Time finish = probe_placement(g, p, t, k, s, tables, scratch, comm_scratch).finish;
        ++stats.probes_issued;
        finishes[k.index()] = finish;
        if (finish < best_f) {
          best_f = finish;
          best_pe = k;
        }
      }
    }
    if (dlog != nullptr) {
      // The log documents the whole row: fill the unprobed finishes against
      // the tables the decision saw.  These observer probes are not counted.
      for (PeId k : p.all_pes()) {
        if (finishes[k.index()] == kUnsetTime) {
          finishes[k.index()] =
              probe_placement(g, p, t, k, s, tables, scratch, comm_scratch).finish;
        }
      }
    }
    commit_placement(g, p, t, best_pe, s, tables);
    ++placed;
    OBS_INSTANT(tr, "greedy.decision", obs::Arg("task", t.value), obs::Arg("pe", best_pe.value),
                obs::Arg("energy", energies[best_pe.index()]),
                obs::Arg("finish", s.at(t).finish));

    if (dlog != nullptr) {
      audit::PlacementDecision d =
          make_placement_record(g, p, t, best_pe, kNoDeadline, "greedy", ready_snapshot, s);
      d.candidates.reserve(p.num_pes());
      for (PeId k : p.all_pes()) {
        audit::CandidateRow row;
        row.task = t.value;
        row.pe = k.value;
        row.finish = finishes[k.index()];
        row.energy = energies[k.index()];
        row.score = energies[k.index()];  // greedy minimizes E(i,k)
        d.candidates.push_back(row);
      }
      dlog->record_placement(std::move(d));
    }

    for (EdgeId e : g.out_edges(t)) {
      const TaskId succ = g.edge(e).dst;
      if (--unplaced_preds[succ.index()] == 0) ready.insert(succ);
    }
  }

  BaselineResult result;
  result.schedule = std::move(s);
  result.misses = deadline_misses(g, result.schedule);
  result.energy = compute_energy(g, p, result.schedule);
  result.probe = stats;
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
