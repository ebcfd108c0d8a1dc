#include "src/core/list_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace noceas {

ProbeResult probe_placement(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                            const Schedule& schedule, const ResourceTables& tables,
                            TentativeTables& scratch, CommScratch& comm_scratch) {
  NOCEAS_REQUIRE(&scratch.base() == &tables, "scratch overlay bound to different tables");
  const IncomingCommResult& comms =
      probe_incoming_comms(g, p, task, pe, schedule.tasks, scratch, comm_scratch);
  const Duration exec = g.task(task).exec_time.at(pe.index());
  ProbeResult r;
  r.data_ready_time = std::max(comms.data_ready_time, g.task(task).release);
  r.start = tables.pe[pe.index()].earliest_fit(r.data_ready_time, exec);
  r.finish = r.start + exec;
  return r;
}

ProbeResult probe_placement(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                            const Schedule& schedule, const ResourceTables& tables,
                            TentativeTables& scratch) {
  CommScratch comm_scratch;
  return probe_placement(g, p, task, pe, schedule, tables, scratch, comm_scratch);
}

ProbeResult probe_placement(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                            const Schedule& schedule, const ResourceTables& tables) {
  TentativeTables scratch(tables);
  return probe_placement(g, p, task, pe, schedule, tables, scratch);
}

Time finish_lower_bound(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                        const Schedule& schedule, const ResourceTables& tables) {
  const Task& tk = g.task(task);
  Time drt = tk.release;
  for (EdgeId e : g.in_edges(task)) {
    const CommEdge& edge = g.edge(e);
    const TaskPlacement& sender = schedule.tasks[edge.src.index()];
    const Duration dur = edge.is_control_only() ? 0 : p.transfer_time(edge.volume, sender.pe, pe);
    drt = std::max(drt, sender.finish + dur);
  }
  const Duration exec = tk.exec_time[pe.index()];
  return tables.pe[pe.index()].earliest_fit(drt, exec) + exec;
}

void require_time_horizon(const TaskGraph& g, const Platform& p) {
  Time horizon = 0;
  const auto extend = [&](Duration d, const char* what) {
    NOCEAS_REQUIRE(!__builtin_add_overflow(horizon, d, &horizon),
                   "time horizon overflows the 64-bit time type at " << what);
  };
  for (TaskId t : g.all_tasks()) horizon = std::max(horizon, g.task(t).release);
  for (TaskId t : g.all_tasks()) {
    const std::vector<Duration>& times = g.task(t).exec_time;
    extend(*std::max_element(times.begin(), times.end()), "execution times");
  }
  Duration guard = 0;  // longest route, added to every pipeline-guarded transfer
  if (p.pipeline_guard()) {
    for (PeId a : p.all_pes()) {
      for (PeId b : p.all_pes()) {
        guard = std::max(guard, static_cast<Duration>(p.route(a, b).size()));
      }
    }
  }
  for (EdgeId e : g.all_edges()) {
    const CommEdge& edge = g.edge(e);
    if (edge.is_control_only()) continue;
    // Range-check the tick count before transfer_duration() converts it.
    const double ticks = static_cast<double>(edge.volume) / p.route_bandwidth();
    NOCEAS_REQUIRE(ticks < 0x1p62,
                   "transfer of " << edge.volume << " bits overflows the 64-bit time type");
    const Duration d = transfer_duration(edge.volume, p.route_bandwidth());
    extend(d > 0 ? d + guard : 0, "transfer times");
  }
}

void commit_placement(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                      Schedule& schedule, ResourceTables& tables) {
  NOCEAS_REQUIRE(!schedule.tasks[task.index()].placed(),
                 "task " << task.value << " committed twice");
  ReservationLog log;
  const IncomingCommResult comms =
      schedule_incoming_comms(g, p, task, pe, schedule.tasks, tables, log);
  const Duration exec = g.task(task).exec_time.at(pe.index());
  const Time ready = std::max(comms.data_ready_time, g.task(task).release);
  const Time start = tables.pe[pe.index()].earliest_fit(ready, exec);
  tables.pe[pe.index()].reserve(Interval{start, start + exec});
  log.commit();

  TaskPlacement& tp = schedule.tasks[task.index()];
  tp.pe = pe;
  tp.start = start;
  tp.finish = start + exec;
  for (const auto& [edge, cp] : comms.placements) schedule.comms[edge.index()] = cp;
}

audit::PlacementDecision make_placement_record(const TaskGraph& g, const Platform& p, TaskId task,
                                               PeId pe, Time budget, const char* rule,
                                               const std::vector<TaskId>& ready,
                                               const Schedule& schedule) {
  audit::PlacementDecision d;
  d.task = task.value;
  d.pe = pe.value;
  d.start = schedule.at(task).start;
  d.finish = schedule.at(task).finish;
  d.budget = budget;
  d.rule = rule;
  d.ready.reserve(ready.size());
  for (TaskId t : ready) d.ready.push_back(t.value);
  for (EdgeId e : g.in_edges(task)) {
    const CommPlacement& cp = schedule.at(e);
    audit::CommRecord rec;
    rec.edge = e.value;
    rec.src_task = g.edge(e).src.value;
    rec.src_finish = schedule.at(g.edge(e).src).finish;
    rec.src_pe = cp.src_pe.value;
    rec.dst_pe = cp.dst_pe.value;
    rec.start = cp.start;
    rec.duration = cp.duration;
    if (cp.uses_network()) {
      for (LinkId l : p.route(cp.src_pe, cp.dst_pe)) rec.route.push_back(l.value);
    }
    d.comms.push_back(std::move(rec));
  }
  return d;
}

audit::FinalRecord make_final_record(const Schedule& s, const EnergyBreakdown& e,
                                     const MissReport& m) {
  audit::FinalRecord f;
  f.tasks.reserve(s.tasks.size());
  for (const TaskPlacement& t : s.tasks) {
    f.tasks.push_back(audit::FinalTask{t.pe.value, t.start, t.finish});
  }
  f.comms.reserve(s.comms.size());
  for (const CommPlacement& c : s.comms) {
    f.comms.push_back(audit::FinalComm{c.src_pe.value, c.dst_pe.value, c.start, c.duration});
  }
  f.computation_energy = e.computation;
  f.communication_energy = e.communication;
  f.miss_count = m.miss_count;
  f.total_tardiness = m.total_tardiness;
  return f;
}

Energy placement_energy(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                        const Schedule& schedule) {
  return g.task(task).exec_energy.at(pe.index()) +
         incoming_comm_energy(g, p, task, pe, schedule.tasks);
}

std::uint64_t probe_footprint_version(const TaskGraph& g, const Platform& p, TaskId task,
                                      PeId dest, const std::vector<TaskPlacement>& placements,
                                      const ResourceTables& tables) {
  std::uint64_t v = tables.pe[dest.index()].version();
  for (EdgeId e : g.in_edges(task)) {
    const CommEdge& edge = g.edge(e);
    if (edge.is_control_only()) continue;
    const TaskPlacement& sender = placements[edge.src.index()];
    NOCEAS_REQUIRE(sender.placed(), "sender task " << edge.src.value << " not yet scheduled");
    if (sender.pe == dest) continue;  // same tile: zero transfer, no links read
    for (const LinkId l : p.route(sender.pe, dest)) v += tables.link[l.index()].version();
  }
  return v;
}

ProbeEngine::ProbeEngine(const TaskGraph& g, const Platform& p, const ResourceTables& tables,
                         Options options)
    : g_(g),
      p_(p),
      tables_(tables),
      options_(options),
      num_pes_(p.num_pes()),
      pool_(nullptr),
      entries_(g.num_tasks() * p.num_pes()),
      energy_(g.num_tasks() * p.num_pes(), std::numeric_limits<Energy>::quiet_NaN()) {
  if (options_.parallel && shared_probe_pool().lanes() > 1) pool_ = &shared_probe_pool();
  const unsigned lanes = pool_ ? pool_->lanes() : 1;
  scratch_.reserve(lanes);
  for (unsigned i = 0; i < lanes; ++i) scratch_.emplace_back(tables_);
  comm_scratch_.resize(lanes);
  if (options_.metrics != nullptr) {
    batch_size_h_ = &options_.metrics->histogram("probe.batch_size",
                                                 obs::exp_buckets(1.0, 2.0, 12), "probes");
    batch_ns_h_ =
        &options_.metrics->histogram("probe.batch_ns", obs::exp_buckets(1e3, 4.0, 12), "ns");
  }
}

void ProbeEngine::refresh(std::span<const TaskId> tasks, const Schedule& schedule) {
  OBS_SPAN_NAMED(span, options_.tracer, "probe.batch",
                 {obs::Arg("requested", tasks.size() * num_pes_)});
  stale_.clear();
  for (const TaskId t : tasks) {
    const std::size_t base = t.index() * num_pes_;
    for (std::size_t k = 0; k < num_pes_; ++k) {
      Entry& e = entries_[base + k];
      std::uint64_t fv = 0;
      if (options_.cache) {
        fv = probe_footprint_version(g_, p_, t, PeId{k}, schedule.tasks, tables_);
        if (e.valid && e.footprint == fv) {
          ++stats_.cache_hits;
          continue;
        }
        if (e.valid) ++stats_.invalidations;
      }
      stale_.push_back(StaleItem{static_cast<std::uint32_t>(t.index()),
                                 static_cast<std::uint32_t>(k), fv});
    }
  }
  stats_.probes_issued += stale_.size();
  stats_.max_batch = std::max<std::uint64_t>(stats_.max_batch, stale_.size());
  span.arg(obs::Arg("stale", stale_.size()));
  const auto eval_t0 = batch_ns_h_ != nullptr ? std::chrono::steady_clock::now()
                                              : std::chrono::steady_clock::time_point{};

  auto evaluate = [&](std::size_t i, unsigned lane) {
    const StaleItem& item = stale_[i];
    Entry& e = entries_[item.task * num_pes_ + item.pe];
    e.result = probe_placement(g_, p_, TaskId{static_cast<std::size_t>(item.task)},
                               PeId{static_cast<std::size_t>(item.pe)}, schedule, tables_,
                               scratch_[lane], comm_scratch_[lane]);
    e.footprint = item.footprint;
    e.valid = true;
  };

  // Parallelism pays only when the batch dwarfs the wake-up cost; small
  // batches (the common case at high hit rates) stay on the calling thread.
  const bool parallel = pool_ && stale_.size() >= 2 * static_cast<std::size_t>(pool_->lanes());
  if (parallel) {
    ++stats_.parallel_batches;
    stats_.parallel_probes += stale_.size();
    pool_->parallel_for(stale_.size(), evaluate);
  } else {
    for (std::size_t i = 0; i < stale_.size(); ++i) evaluate(i, 0);
  }
  span.arg(obs::Arg("parallel", parallel));
  if (batch_size_h_ != nullptr) batch_size_h_->observe(static_cast<double>(stale_.size()));
  if (batch_ns_h_ != nullptr) {
    batch_ns_h_->observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             eval_t0)
            .count()));
  }
}

const ProbeResult& ProbeEngine::fresh(TaskId t, PeId k, const Schedule& schedule) {
  Entry& e = entries_[t.index() * num_pes_ + k.index()];
  if (options_.cache) {
    const std::uint64_t fv = probe_footprint_version(g_, p_, t, k, schedule.tasks, tables_);
    if (e.valid && e.footprint == fv) {
      ++stats_.cache_hits;
      return e.result;
    }
    if (e.valid) ++stats_.invalidations;
    e.footprint = fv;
  }
  e.result = probe_placement(g_, p_, t, k, schedule, tables_, scratch_[0], comm_scratch_[0]);
  e.valid = true;
  ++stats_.probes_issued;
  return e.result;
}

Energy ProbeEngine::energy(TaskId t, PeId k, const Schedule& schedule) {
  Energy& slot = energy_[t.index() * num_pes_ + k.index()];
  if (std::isnan(slot)) slot = placement_energy(g_, p_, t, k, schedule);
  return slot;
}

void ReadyList::insert(TaskId t) {
  items_.insert(std::upper_bound(items_.begin(), items_.end(), t), t);
}

void ReadyList::erase(TaskId t) {
  const auto it = std::lower_bound(items_.begin(), items_.end(), t);
  NOCEAS_REQUIRE(it != items_.end() && *it == t, "task " << t.value << " not in ready list");
  items_.erase(it);
}

void ReadyList::erase_at(std::size_t i) {
  NOCEAS_REQUIRE(i < items_.size(), "ready index " << i << " out of range");
  items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(i));
}

}  // namespace noceas
