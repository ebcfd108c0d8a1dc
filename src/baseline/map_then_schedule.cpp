#include "src/baseline/map_then_schedule.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/core/comm_scheduler.hpp"
#include "src/core/list_common.hpp"
#include "src/core/obs_export.hpp"
#include "src/core/resource_tables.hpp"
#include "src/ctg/dag_algos.hpp"

namespace noceas {

namespace {

/// Eq. 3 energy of a complete assignment.
Energy assignment_energy(const TaskGraph& g, const Platform& p, const std::vector<PeId>& map) {
  Energy e = 0.0;
  for (TaskId t : g.all_tasks()) e += g.task(t).exec_energy[map[t.index()].index()];
  for (EdgeId edge : g.all_edges()) {
    const CommEdge& c = g.edge(edge);
    if (c.is_control_only()) continue;
    e += p.transfer_energy(c.volume, map[c.src.index()], map[c.dst.index()]);
  }
  return e;
}

/// Energy delta of moving task t to PE `to` under assignment `map`.
Energy move_delta(const TaskGraph& g, const Platform& p, const std::vector<PeId>& map, TaskId t,
                  PeId to) {
  const PeId from = map[t.index()];
  if (from == to) return 0.0;
  const Task& task = g.task(t);
  Energy delta = task.exec_energy[to.index()] - task.exec_energy[from.index()];
  for (EdgeId e : g.in_edges(t)) {
    const CommEdge& c = g.edge(e);
    if (c.is_control_only()) continue;
    const PeId src = map[c.src.index()];
    delta += p.transfer_energy(c.volume, src, to) - p.transfer_energy(c.volume, src, from);
  }
  for (EdgeId e : g.out_edges(t)) {
    const CommEdge& c = g.edge(e);
    if (c.is_control_only()) continue;
    const PeId dst = map[c.dst.index()];
    delta += p.transfer_energy(c.volume, to, dst) - p.transfer_energy(c.volume, from, dst);
  }
  return delta;
}

}  // namespace

MapScheduleResult schedule_map_then_list(const TaskGraph& g, const Platform& p,
                                         const MapScheduleOptions& options) {
  NOCEAS_REQUIRE(g.num_pes() == p.num_pes(), "CTG/platform PE count mismatch");
  require_time_horizon(g, p);
  NOCEAS_REQUIRE(options.load_cap_factor >= 1.0, "load cap must be >= 1");
  const auto t0 = std::chrono::steady_clock::now();
  obs::Tracer* const tr = options.obs.tracer;
  OBS_SPAN(tr, "map.schedule", {obs::Arg("tasks", g.num_tasks()), obs::Arg("pes", p.num_pes())});

  const std::size_t P = p.num_pes();
  const auto mean = mean_durations(g);

  // Per-PE load cap in mean execution time units.  The average-load term is
  // meaningless when there are fewer tasks than tiles, so the cap is floored
  // at twice the largest task — any pair of tasks may always share a tile.
  double total_work = 0.0;
  double max_work = 0.0;
  for (double m : mean) {
    total_work += m;
    max_work = std::max(max_work, m);
  }
  const double cap = std::max(options.load_cap_factor * total_work / static_cast<double>(P),
                              2.0 * max_work);

  // ---- Phase 1a: greedy seeding by communication demand ------------------
  OBS_SPAN_NAMED(map_span, tr, "map.phase1_mapping");
  std::vector<TaskId> by_demand = g.all_tasks();
  std::sort(by_demand.begin(), by_demand.end(), [&](TaskId a, TaskId b) {
    Volume va = 0, vb = 0;
    for (EdgeId e : g.in_edges(a)) va += g.edge(e).volume;
    for (EdgeId e : g.out_edges(a)) va += g.edge(e).volume;
    for (EdgeId e : g.in_edges(b)) vb += g.edge(e).volume;
    for (EdgeId e : g.out_edges(b)) vb += g.edge(e).volume;
    if (va != vb) return va > vb;
    return a < b;
  });

  std::vector<PeId> mapping(g.num_tasks());
  std::vector<bool> mapped(g.num_tasks(), false);
  std::vector<double> load(P, 0.0);
  for (TaskId t : by_demand) {
    PeId best;
    Energy best_cost = std::numeric_limits<Energy>::infinity();
    for (PeId k : p.all_pes()) {
      if (load[k.index()] + mean[t.index()] > cap) continue;
      Energy cost = g.task(t).exec_energy[k.index()];
      for (EdgeId e : g.in_edges(t)) {
        const CommEdge& c = g.edge(e);
        if (!c.is_control_only() && mapped[c.src.index()])
          cost += p.transfer_energy(c.volume, mapping[c.src.index()], k);
      }
      for (EdgeId e : g.out_edges(t)) {
        const CommEdge& c = g.edge(e);
        if (!c.is_control_only() && mapped[c.dst.index()])
          cost += p.transfer_energy(c.volume, k, mapping[c.dst.index()]);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = k;
      }
    }
    if (!best.valid()) {
      // Cap exhausted everywhere (pathological): fall back to least loaded.
      best = PeId{static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin())};
    }
    mapping[t.index()] = best;
    mapped[t.index()] = true;
    load[best.index()] += mean[t.index()];
  }

  // ---- Phase 1b: steepest-descent moves under the load cap ---------------
  MapScheduleResult out;
  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    bool improved = false;
    for (TaskId t : g.all_tasks()) {
      const PeId from = mapping[t.index()];
      PeId best_to;
      Energy best_delta = -1e-9;  // strictly improving only
      for (PeId to : p.all_pes()) {
        if (to == from) continue;
        if (load[to.index()] + mean[t.index()] > cap) continue;
        const Energy delta = move_delta(g, p, mapping, t, to);
        if (delta < best_delta) {
          best_delta = delta;
          best_to = to;
        }
      }
      if (best_to.valid()) {
        load[from.index()] -= mean[t.index()];
        load[best_to.index()] += mean[t.index()];
        mapping[t.index()] = best_to;
        ++out.improvement_moves;
        improved = true;
      }
    }
    if (!improved) break;
  }
  out.mapping = mapping;
  out.mapping_energy = assignment_energy(g, p, mapping);
  map_span.arg(obs::Arg("moves", out.improvement_moves));
  map_span.arg(obs::Arg("mapping_energy", out.mapping_energy));
  map_span.end();

  // ---- Phase 2: list scheduling with the mapping fixed --------------------
  OBS_SPAN(tr, "map.phase2_list_schedule");
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  const auto eff_deadline = effective_deadlines(g, mean);
  // Provenance covers phase 2 only: the phase-1 assignment is an input of
  // the decision stream (the single candidate row per placement), so replay
  // re-executes the list scheduling, not the mapping search.
  audit::DecisionLog* const dlog = options.obs.decisions;
  if (dlog != nullptr) dlog->begin_run("map", g.num_tasks(), g.num_edges(), P);
  std::vector<TaskId> ready_snapshot;  // provenance only; empty when no log

  std::vector<std::size_t> unplaced_preds(g.num_tasks());
  ReadyList ready;
  for (TaskId t : g.all_tasks()) {
    unplaced_preds[t.index()] = g.in_degree(t);
    if (unplaced_preds[t.index()] == 0) ready.seed(t);
  }
  std::size_t placed = 0;
  while (placed < g.num_tasks()) {
    NOCEAS_REQUIRE(!ready.empty(), "no ready task but unplaced tasks remain (cycle?)");
    const auto& items = ready.items();
    auto it = std::min_element(items.begin(), items.end(), [&](TaskId a, TaskId b) {
      if (eff_deadline[a.index()] != eff_deadline[b.index()])
        return eff_deadline[a.index()] < eff_deadline[b.index()];
      return a < b;
    });
    const TaskId t = *it;
    if (dlog != nullptr) ready_snapshot = items;
    ready.erase_at(static_cast<std::size_t>(it - items.begin()));
    OBS_INSTANT(tr, "map.decision", obs::Arg("task", t.value),
                obs::Arg("pe", mapping[t.index()].value));
    commit_placement(g, p, t, mapping[t.index()], s, tables);
    ++placed;
    if (dlog != nullptr) {
      const Time budget = eff_deadline[t.index()];
      audit::PlacementDecision d =
          make_placement_record(g, p, t, mapping[t.index()], budget, "mapped", ready_snapshot, s);
      audit::CandidateRow row;  // the phase-1 mapping leaves one candidate
      row.task = t.value;
      row.pe = mapping[t.index()].value;
      row.finish = s.at(t).finish;
      row.energy = placement_energy(g, p, t, mapping[t.index()], s);
      row.feasible = budget == kNoDeadline || row.finish <= budget;
      row.score = static_cast<double>(budget == kNoDeadline ? -1 : budget);
      d.candidates.push_back(row);
      dlog->record_placement(std::move(d));
    }
    for (EdgeId e : g.out_edges(t)) {
      const TaskId succ = g.edge(e).dst;
      if (--unplaced_preds[succ.index()] == 0) ready.insert(succ);
    }
  }

  out.result.schedule = std::move(s);
  out.result.misses = deadline_misses(g, out.result.schedule);
  out.result.energy = compute_energy(g, p, out.result.schedule);
  out.result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (dlog != nullptr) {
    dlog->record_final(make_final_record(out.result.schedule, out.result.energy,
                                         out.result.misses));
  }
  if (options.obs.metrics != nullptr) {
    export_schedule_metrics(g, p, out.result.schedule, *options.obs.metrics);
    options.obs.metrics->gauge("map.mapping_energy", "energy").set(out.mapping_energy);
    options.obs.metrics->gauge("map.improvement_moves", "moves")
        .set(static_cast<double>(out.improvement_moves));
  }
  return out;
}

}  // namespace noceas
