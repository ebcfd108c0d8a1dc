#include "src/baseline/edf.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/core/list_common.hpp"
#include "src/core/obs_export.hpp"
#include "src/core/resource_tables.hpp"
#include "src/ctg/dag_algos.hpp"

namespace noceas {

BaselineResult schedule_edf(const TaskGraph& g, const Platform& p, const BaselineObs& obs) {
  NOCEAS_REQUIRE(g.num_pes() == p.num_pes(), "CTG/platform PE count mismatch");
  require_time_horizon(g, p);
  const auto t0 = std::chrono::steady_clock::now();
  obs::Tracer* const tr = obs.tracer;
  OBS_SPAN(tr, "edf.schedule", {obs::Arg("tasks", g.num_tasks()), obs::Arg("pes", p.num_pes())});

  const auto eff_deadline = effective_deadlines(g, mean_durations(g));

  const std::size_t P = p.num_pes();
  audit::DecisionLog* const dlog = obs.decisions;
  if (dlog != nullptr) dlog->begin_run("edf", g.num_tasks(), g.num_edges(), P);
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  TentativeTables scratch(tables);  // reused probe overlay; tables stay const
  CommScratch comm_scratch;         // reused Fig. 3 buffers
  ProbeStats stats;

  std::vector<std::size_t> unplaced_preds(g.num_tasks());
  ReadyList ready;
  for (TaskId t : g.all_tasks()) {
    unplaced_preds[t.index()] = g.in_degree(t);
    if (unplaced_preds[t.index()] == 0) ready.seed(t);
  }

  // Scratch for the lazy energy tie-break: the incoming data transactions of
  // the task under placement (sender PEs are fixed once it is ready — the
  // PE-independent part of placement_energy, hoisted out of the PE loop) and
  // a per-PE memo so each energy is computed at most once, and only when an
  // exact finish-time tie actually needs it.
  struct DataIn {
    Volume volume;
    PeId src;
  };
  std::vector<DataIn> data_in;
  std::vector<Energy> energy_memo(P);

  std::vector<TaskId> ready_snapshot;  // provenance only; empty when no log
  std::vector<Time> finishes(P);                       // kUnsetTime = pruned
  std::vector<std::pair<Time, std::uint32_t>> bounds;  // (lower bound, PE id)
  bounds.reserve(P);
  std::size_t placed = 0;
  while (placed < g.num_tasks()) {
    NOCEAS_REQUIRE(!ready.empty(), "no ready task but unplaced tasks remain (cycle?)");

    // Earliest effective deadline first; ties by id for determinism.
    const auto& items = ready.items();
    auto it = std::min_element(items.begin(), items.end(), [&](TaskId a, TaskId b) {
      if (eff_deadline[a.index()] != eff_deadline[b.index()])
        return eff_deadline[a.index()] < eff_deadline[b.index()];
      return a < b;
    });
    const TaskId t = *it;
    if (dlog != nullptr) ready_snapshot = items;
    ready.erase_at(static_cast<std::size_t>(it - items.begin()));

    data_in.clear();
    for (EdgeId e : g.in_edges(t)) {
      const CommEdge& c = g.edge(e);
      if (!c.is_control_only()) data_in.push_back(DataIn{c.volume, s.at(c.src).pe});
    }
    std::fill(energy_memo.begin(), energy_memo.end(),
              std::numeric_limits<Energy>::quiet_NaN());
    auto energy_of = [&](PeId k) {
      Energy& memo = energy_memo[k.index()];
      if (std::isnan(memo)) {
        Energy e = g.task(t).exec_energy[k.index()];
        for (const DataIn& d : data_in) e += p.transfer_energy(d.volume, d.src, k);
        memo = e;
      }
      return memo;
    };

    // Earliest finish time over all PEs; ties towards lower energy, then id:
    // the lexicographic (F, E, id) minimum.  Energy only ever breaks exact
    // finish-time ties, so it is evaluated lazily.  PEs are probed in
    // ascending (bound, id) order and the scan stops at the first bound
    // above the best exact finish: finish_lower_bound() never exceeds F(i,k),
    // so no PE left unprobed can reach the minimum.
    bounds.clear();
    for (PeId k : p.all_pes()) {
      bounds.emplace_back(finish_lower_bound(g, p, t, k, s, tables),
                          static_cast<std::uint32_t>(k.index()));
    }
    std::sort(bounds.begin(), bounds.end());
    PeId best_pe;
    Time best_f = std::numeric_limits<Time>::max();
    std::fill(finishes.begin(), finishes.end(), kUnsetTime);
    for (const auto& [bound, id] : bounds) {
      if (bound > best_f) break;
      const PeId k{static_cast<std::size_t>(id)};
      const Time finish = probe_placement(g, p, t, k, s, tables, scratch, comm_scratch).finish;
      ++stats.probes_issued;
      finishes[k.index()] = finish;
      if (finish < best_f ||
          (finish == best_f && (energy_of(k) < energy_of(best_pe) ||
                                (energy_of(k) == energy_of(best_pe) && k < best_pe)))) {
        best_f = finish;
        best_pe = k;
      }
    }
    OBS_INSTANT(tr, "edf.decision", obs::Arg("task", t.value), obs::Arg("pe", best_pe.value),
                obs::Arg("finish", best_f),
                obs::Arg("eff_deadline",
                         eff_deadline[t.index()] == kNoDeadline ? -1 : eff_deadline[t.index()]));
    if (dlog != nullptr) {
      // The log documents the whole row: fill the pruned finishes against
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

    if (dlog != nullptr) {
      const Time budget = eff_deadline[t.index()];
      audit::PlacementDecision d =
          make_placement_record(g, p, t, best_pe, budget, "edf", ready_snapshot, s);
      d.candidates.reserve(P);
      for (PeId k : p.all_pes()) {
        audit::CandidateRow row;
        row.task = t.value;
        row.pe = k.value;
        row.finish = finishes[k.index()];
        row.energy = energy_of(k);  // pure + memoized: bit-neutral to fill
        row.feasible = budget == kNoDeadline || row.finish <= budget;
        row.score = static_cast<double>(row.finish);  // EDF minimizes F(i,k)
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
