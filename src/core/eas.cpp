#include "src/core/eas.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "src/core/list_common.hpp"
#include "src/core/obs_export.hpp"
#include "src/ctg/dag_algos.hpp"

namespace noceas {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Budgeted deadlines without slack redistribution (ablation path): plain
/// effective deadlines under mean durations.
std::vector<Time> plain_budget(const TaskGraph& g) {
  return effective_deadlines(g, mean_durations(g));
}

/// Step 2: level-based scheduling against budgeted deadlines `bd`.
/// Probe-path counters are accumulated into `stats`.
Schedule level_based_schedule(const TaskGraph& g, const Platform& p, const std::vector<Time>& bd,
                              const EasOptions& options, ProbeStats& stats) {
  Schedule s(g.num_tasks(), g.num_edges());
  ResourceTables tables(p);
  ProbeEngine engine(g, p, tables,
                     ProbeEngine::Options{options.probe_cache, options.parallel_probes,
                                          options.tracer, options.metrics});
  obs::Tracer* const tr = options.tracer;
  obs::Histogram* const slack_h =
      options.metrics != nullptr
          ? &options.metrics->histogram("eas.decision_slack",
                                        obs::exp_buckets(1.0, 4.0, 10), "time units")
          : nullptr;
  obs::Counter* const decisions_c =
      options.metrics != nullptr ? &options.metrics->counter("eas.decisions", "tasks") : nullptr;
  obs::Counter* const urgent_c =
      options.metrics != nullptr ? &options.metrics->counter("eas.urgent_decisions", "tasks")
                                 : nullptr;

  const std::size_t n = g.num_tasks();
  const std::size_t P = p.num_pes();
  std::vector<std::size_t> unplaced_preds(n);
  ReadyList ready;  // the RTL, kept sorted by id for determinism
  for (TaskId t : g.all_tasks()) {
    unplaced_preds[t.index()] = g.in_degree(t);
    if (unplaced_preds[t.index()] == 0) ready.seed(t);
  }

  // The lazy probe path consults only the pairs the selection rule actually
  // reads, so it cannot fill the full candidate table the observability and
  // provenance sinks expect; with any sink attached the eager batch path
  // runs instead (bit-identical schedules either way, see below).
  const bool lazy_probes = options.tracer == nullptr && options.metrics == nullptr &&
                           options.decisions == nullptr && !options.force_eager_probes;
  // Lazy-scan scratch: each task's PE order by (energy, id), sorted the
  // first time the task is scanned; the current task's memoized bounds.
  std::vector<std::uint32_t> pe_order(lazy_probes ? n * P : 0);
  std::vector<bool> ordered(lazy_probes ? n : 0, false);
  std::vector<Time> bound(P);
  std::vector<std::pair<Energy, std::uint32_t>> pe_by_energy;
  std::vector<std::pair<Time, std::uint32_t>> by_bound;
  pe_by_energy.reserve(P);
  by_bound.reserve(P);

  std::size_t placed = 0;
  while (placed < n) {
    NOCEAS_REQUIRE(!ready.empty(), "no ready task but " << (n - placed) << " unplaced (cycle?)");
    OBS_SPAN(tr, "eas.level", {obs::Arg("level", placed), obs::Arg("ready", ready.size())});

    // Evaluate F(i,k) for every ready task / PE combination.  The engine
    // reuses every probe whose consulted tables (the PE, the links of the
    // incoming routes) are unchanged since it was computed, and evaluates
    // the stale remainder — pure functions over const tables — in parallel.
    if (!lazy_probes) engine.refresh(ready.items(), s);

    struct Candidate {
      TaskId task;
      PeId urgent_pe;          // argmin_k F(i,k)
      Time min_finish = 0;     // min_F(i)
      double urgency = -kInf;  // min_F(i) - BD_i (only when over budget)
      PeId energy_pe;          // argmin-energy PE within the feasible list L_i
      double regret = -kInf;   // delta_E = E2 - E1
    };
    std::vector<Candidate> cands;
    cands.reserve(ready.size());

    for (TaskId t : ready) {
      Candidate c;
      c.task = t;
      const Time budget = bd[t.index()];

      if (lazy_probes) {
        // Lazy probing: the selection rule reads (a) which PEs are feasible
        // up to the *second* feasible one (E1/E2 and the regret), (b) exact
        // finishes only for ties inside the minimum-energy feasible group,
        // and (c) the argmin of the F row only when the task is over budget
        // on every PE.  Energies are memoized and never stale, so each
        // task's PEs are sorted by (energy, id) once, the first time it is
        // scanned, and F(i,k) is materialised on demand.  A PE whose
        // finish_lower_bound() is above BD_i is infeasible without a probe.
        // Every value consumed is exact, so decisions — and thus schedules
        // — are bit-identical to the eager batch path.
        std::uint32_t* const order = &pe_order[t.index() * P];
        if (!ordered[t.index()]) {
          pe_by_energy.clear();
          for (std::size_t k = 0; k < P; ++k) {
            pe_by_energy.emplace_back(engine.energy(t, PeId{k}, s),
                                      static_cast<std::uint32_t>(k));
          }
          std::sort(pe_by_energy.begin(), pe_by_energy.end());
          for (std::size_t i = 0; i < P; ++i) order[i] = pe_by_energy[i].second;
          ordered[t.index()] = true;
        }
        const auto pe_at = [&](std::size_t i) {
          return PeId{static_cast<std::size_t>(order[i])};
        };
        const auto energy_at = [&](std::size_t i) { return engine.energy(t, pe_at(i), s); };
        std::fill(bound.begin(), bound.end(), kUnsetTime);
        const auto bound_of = [&](PeId k) {
          Time& b = bound[k.index()];
          if (b == kUnsetTime) b = finish_lower_bound(g, p, t, k, s, tables);
          return b;
        };

        double e1 = kInf, e2 = kInf;
        PeId best_pe;
        Time best_f = std::numeric_limits<Time>::max();
        int feasible = 0;
        for (std::size_t gi = 0; gi < P && feasible < 2;) {
          std::size_t ge = gi + 1;  // [gi, ge) = one equal-energy group
          while (ge < P && energy_at(ge) == energy_at(gi)) ++ge;
          if (feasible == 0) {
            // May contain E1: resolve the whole group, with exact finishes
            // for the (e == e1, finish) tie-break.  A group with a single
            // member and no budget needs no probe at all — it is feasible
            // by definition and nothing ties against it.
            for (std::size_t i = gi; i < ge; ++i) {
              const PeId k = pe_at(i);
              if (budget == kNoDeadline && ge - gi == 1) {
                e1 = energy_at(i);
                best_pe = k;
                ++feasible;
                break;
              }
              if (budget != kNoDeadline && bound_of(k) > budget) continue;
              const Time finish = engine.fresh(t, k, s).finish;
              if (budget != kNoDeadline && finish > budget) continue;
              const Energy e = energy_at(i);
              if (e < e1 || (e == e1 && finish < best_f)) {
                e2 = e1;
                e1 = e;
                best_pe = k;
                best_f = finish;
              } else if (e < e2) {
                e2 = e;
              }
              ++feasible;
            }
            if (feasible >= 2) e2 = e1;  // >= 2 feasible PEs at minimum energy
          } else {
            // E1 is fixed (this group's energy is strictly larger): the
            // first feasible member closes E2 and the scan.
            for (std::size_t i = gi; i < ge; ++i) {
              const PeId k = pe_at(i);
              if (budget != kNoDeadline &&
                  (bound_of(k) > budget || engine.fresh(t, k, s).finish > budget)) {
                continue;
              }
              e2 = energy_at(i);
              ++feasible;
              break;
            }
          }
          gi = ge;
        }

        if (feasible == 0) {
          // Over budget on every PE: urgency mode candidate (paper Step
          // 2.3), which needs the (F, id)-minimum of the row.  PEs are
          // probed in ascending (bound, id) order until a bound exceeds the
          // best exact finish; no PE left unprobed can reach the minimum.
          by_bound.clear();
          for (std::size_t k = 0; k < P; ++k) {
            by_bound.emplace_back(bound_of(PeId{k}), static_cast<std::uint32_t>(k));
          }
          std::sort(by_bound.begin(), by_bound.end());
          Time min_f = std::numeric_limits<Time>::max();
          for (const auto& [b, id] : by_bound) {
            if (b > min_f) break;
            const PeId k{static_cast<std::size_t>(id)};
            const Time finish = engine.fresh(t, k, s).finish;
            if (finish < min_f || (finish == min_f && k < c.urgent_pe)) {
              min_f = finish;
              c.urgent_pe = k;
            }
          }
          c.min_finish = min_f;
          c.urgency = static_cast<double>(min_f - budget);
        } else {
          c.energy_pe = best_pe;
          c.regret = (e2 == kInf) ? kInf : e2 - e1;
        }
        cands.push_back(c);
        continue;
      }

      Time min_f = std::numeric_limits<Time>::max();
      for (std::size_t k = 0; k < P; ++k) {
        const Time finish = engine.result(t, PeId{k}).finish;
        if (finish < min_f) {
          min_f = finish;
          c.urgent_pe = PeId{k};
        }
      }
      c.min_finish = min_f;

      if (budget != kNoDeadline && min_f > budget) {
        // Over budget on every PE: urgency mode candidate (paper Step 2.3).
        c.urgency = static_cast<double>(min_f - budget);
      } else {
        // Feasible list L_i = { k : F(i,k) <= BD_i } (all PEs when no BD).
        double e1 = kInf, e2 = kInf;
        PeId best_pe;
        Time best_f = std::numeric_limits<Time>::max();
        for (std::size_t k = 0; k < P; ++k) {
          const Time finish = engine.result(t, PeId{k}).finish;
          if (budget != kNoDeadline && finish > budget) continue;
          const Energy e = engine.energy(t, PeId{k}, s);
          if (e < e1 || (e == e1 && finish < best_f)) {
            e2 = e1;
            e1 = e;
            best_pe = PeId{k};
            best_f = finish;
          } else if (e < e2) {
            e2 = e;
          }
        }
        NOCEAS_REQUIRE(best_pe.valid(), "empty feasible list despite min_F <= BD");
        c.energy_pe = best_pe;
        // Single feasible PE: deferring could cost unboundedly; schedule now.
        c.regret = (e2 == kInf) ? kInf : e2 - e1;
      }
      cands.push_back(c);
    }

    // Selection: urgency mode wins if any candidate is over budget
    // (paper Step 2.3), otherwise maximum energy regret (Step 2.4).
    const Candidate* chosen = nullptr;
    PeId chosen_pe;
    bool urgent_mode = false;
    for (const Candidate& c : cands) {
      if (c.urgency > -kInf) {
        urgent_mode = true;
        if (!chosen || c.urgency > chosen->urgency) chosen = &c;
      }
    }
    if (urgent_mode) {
      chosen_pe = chosen->urgent_pe;
    } else {
      for (const Candidate& c : cands) {
        if (!chosen || c.regret > chosen->regret) chosen = &c;
      }
      chosen_pe = chosen->energy_pe;
    }

    // Commit: re-run the communication scheduler for real and reserve the
    // PE slot (identical timing to the probe — both are deterministic).
    // The reservations bump the version counters of exactly the tables that
    // changed, which is what invalidates the affected cache entries.
    const Time chosen_finish = engine.result(chosen->task, chosen_pe).finish;
    const Time chosen_bd = bd[chosen->task.index()];
    if (urgent_mode) {
      OBS_INSTANT(tr, "eas.decision", obs::Arg("task", chosen->task.value),
                  obs::Arg("pe", chosen_pe.value), obs::Arg("finish", chosen_finish),
                  obs::Arg("bd", chosen_bd == kNoDeadline ? -1 : chosen_bd),
                  obs::Arg("branch", "urgent"), obs::Arg("urgency", chosen->urgency));
    } else {
      OBS_INSTANT(tr, "eas.decision", obs::Arg("task", chosen->task.value),
                  obs::Arg("pe", chosen_pe.value), obs::Arg("finish", chosen_finish),
                  obs::Arg("bd", chosen_bd == kNoDeadline ? -1 : chosen_bd),
                  obs::Arg("branch", "regret"),
                  obs::Arg("delta_e", std::isfinite(chosen->regret) ? chosen->regret : -1.0));
    }
    if (decisions_c != nullptr) {
      decisions_c->inc();
      if (urgent_mode) urgent_c->inc();
      if (chosen_bd != kNoDeadline) {
        slack_h->observe(static_cast<double>(chosen_bd - chosen_finish));
      }
    }
    commit_placement(g, p, chosen->task, chosen_pe, s, tables);
    ++placed;

    if (options.decisions != nullptr) {
      // Full provenance: the committed timing/reservations plus the entire
      // (ready task, PE) table the rule chose from.  engine.energy() is pure
      // and memoized, so filling rows the scheduler itself never read is
      // value-neutral — schedules stay bit-identical with a log attached.
      audit::PlacementDecision d =
          make_placement_record(g, p, chosen->task, chosen_pe, chosen_bd,
                                urgent_mode ? "urgent" : "regret", ready.items(), s);
      d.candidates.reserve(cands.size() * P);
      for (const Candidate& c : cands) {
        const Time budget = bd[c.task.index()];
        const double score = c.urgency > -kInf ? c.urgency : c.regret;
        for (std::size_t k = 0; k < P; ++k) {
          audit::CandidateRow row;
          row.task = c.task.value;
          row.pe = static_cast<std::int32_t>(k);
          row.finish = engine.result(c.task, PeId{k}).finish;
          row.energy = engine.energy(c.task, PeId{k}, s);
          row.feasible = budget == kNoDeadline || row.finish <= budget;
          row.score = score;
          d.candidates.push_back(row);
        }
      }
      options.decisions->record_placement(std::move(d));
    }

    // Maintain the ready list.
    ready.erase(chosen->task);
    for (EdgeId e : g.out_edges(chosen->task)) {
      const TaskId succ = g.edge(e).dst;
      if (--unplaced_preds[succ.index()] == 0) ready.insert(succ);
    }
  }
  stats += engine.stats();
  return s;
}

/// Tightens the budgets of every missed task and all its ancestors by the
/// observed tardiness (plus a small margin), in place.
void tighten_budgets(const TaskGraph& g, const Schedule& s, const MissReport& misses,
                     std::vector<Time>& bd) {
  for (TaskId m : misses.missed) {
    const Time tardiness = s.at(m).finish - g.task(m).deadline;
    const Time cut = tardiness + std::max<Time>(1, tardiness / 4);
    std::deque<TaskId> frontier{m};
    std::vector<bool> seen(g.num_tasks(), false);
    seen[m.index()] = true;
    while (!frontier.empty()) {
      const TaskId t = frontier.front();
      frontier.pop_front();
      if (bd[t.index()] != kNoDeadline) bd[t.index()] -= cut;
      for (EdgeId e : g.in_edges(t)) {
        const TaskId pred = g.edge(e).src;
        if (!seen[pred.index()]) {
          seen[pred.index()] = true;
          frontier.push_back(pred);
        }
      }
    }
  }
}

}  // namespace

EasResult schedule_eas(const TaskGraph& g, const Platform& p, const EasOptions& options) {
  NOCEAS_REQUIRE(g.num_pes() == p.num_pes(),
                 "CTG characterized for " << g.num_pes() << " PEs, platform has " << p.num_pes());
  require_time_horizon(g, p);
  const auto t0 = std::chrono::steady_clock::now();
  OBS_SPAN(options.tracer, "eas.schedule",
           {obs::Arg("tasks", g.num_tasks()), obs::Arg("pes", p.num_pes())});

  EasResult result;
  if (options.decisions != nullptr) {
    options.decisions->begin_run(options.repair ? "eas" : "eas-base", g.num_tasks(),
                                 g.num_edges(), p.num_pes());
  }

  // ---- Step 1: budget slack allocation --------------------------------
  {
    OBS_SPAN(options.tracer, "eas.slack_budget", {obs::Arg("tasks", g.num_tasks())});
    result.budget = compute_slack_budget(g, options.weight);
  }
  std::vector<Time> bd = result.budget.budgeted_deadline;
  if (!options.use_slack_budget) bd = plain_budget(g);

  // ---- Steps 2 + 3, with budget-tightening escalation -------------------
  Schedule best;
  MissReport best_misses;
  EnergyBreakdown best_energy;
  bool have_best = false;

  // Reachability is graph-derived only, so one matrix serves every repair
  // invocation of the retry loop.  Built on the first attempt that actually
  // has something to repair (miss-free runs never pay the O(V^2) cost).
  std::optional<ReachabilityMatrix> shared_reach;

  const int attempts = options.repair ? options.max_budget_retries + 1 : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    OBS_SPAN(options.tracer, "eas.attempt", {obs::Arg("attempt", attempt)});
    if (options.decisions != nullptr) options.decisions->begin_attempt(attempt);
    Schedule s = level_based_schedule(g, p, bd, options, result.probe);

    if (options.repair) {
      RepairOptions repair_options = options.repair_options;
      repair_options.tracer = options.tracer;
      repair_options.decisions = options.decisions;
      if (repair_options.reachability == nullptr) {
        if (!shared_reach && !deadline_misses(g, s).all_met()) shared_reach.emplace(g);
        if (shared_reach) repair_options.reachability = &*shared_reach;
      }
      RepairResult rr = search_and_repair(g, p, s, repair_options);
      if (attempt == 0) result.repair = rr.stats;  // stats of the canonical flow
      s = std::move(rr.schedule);
    } else {
      const MissReport mr = deadline_misses(g, s);
      result.repair.misses_before = result.repair.misses_after = mr.miss_count;
      result.repair.tardiness_before = result.repair.tardiness_after = mr.total_tardiness;
    }

    const MissReport mr = deadline_misses(g, s);
    const EnergyBreakdown eb = compute_energy(g, p, s);
    const bool better = !have_best || mr.better_than(best_misses) ||
                        (!best_misses.better_than(mr) && eb.total() < best_energy.total());
    if (better) {
      best = std::move(s);
      best_misses = mr;
      best_energy = eb;
      have_best = true;
    }
    if (best_misses.all_met()) break;
    if (attempt + 1 < attempts) {
      tighten_budgets(g, best, best_misses, bd);
      result.budget_retries = attempt + 1;
    }
  }

  result.schedule = std::move(best);
  result.misses = best_misses;
  result.energy = best_energy;
  if (options.decisions != nullptr) {
    options.decisions->record_final(
        make_final_record(result.schedule, result.energy, result.misses));
  }
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (options.metrics != nullptr) {
    export_probe_stats(result.probe, *options.metrics);
    export_repair_stats(result.repair, *options.metrics);
    export_schedule_metrics(g, p, result.schedule, *options.metrics);
    options.metrics->gauge("eas.budget_retries", "attempts")
        .set(static_cast<double>(result.budget_retries));
    options.metrics->gauge("eas.seconds", "s").set(result.seconds);
  }
  return result;
}

}  // namespace noceas
