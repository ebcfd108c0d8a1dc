// Shared machinery of all list schedulers in this library (EAS, EDF, DLS,
// greedy): probing the exact finish time of a (ready task, PE) combination
// and committing a chosen placement.
//
// Probing is *pure*: it evaluates the Fig. 3 communication scheduler against
// const schedule tables through a TentativeTables overlay, so nothing has to
// be rolled back (the paper's "the schedule tables of both links and the PEs
// will be restored every time a F(i,k) is calculated" becomes "the tables
// are never touched in the first place").  On top of the pure probe sits
// ProbeEngine: a per-(task, PE) cache validated by the version counters of
// exactly the tables a probe consults, with stale entries re-evaluated in
// parallel on a thread pool.  Both layers are bit-identical to the seed
// serial reserve/rollback implementation by construction (and by
// tests/probe_cache_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/audit/decision_log.hpp"
#include "src/core/comm_scheduler.hpp"
#include "src/core/resource_tables.hpp"
#include "src/core/schedule.hpp"
#include "src/core/tentative_tables.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/thread_pool.hpp"

namespace noceas {

/// Exact timing of a tentative placement of `task` on `pe`.
struct ProbeResult {
  Time data_ready_time = 0;  ///< DRT(i,k)
  Time start = 0;            ///< earliest gap of the PE table >= DRT
  Time finish = 0;           ///< F(i,k) = start + r^i_k
};

/// Computes F(i,k) without changing any table (Eq. 4 + PE gap insertion).
/// All predecessors of `task` must be placed in `schedule.tasks`.
/// `scratch` is an overlay bound to `tables`; it is reset on entry and holds
/// only this probe's tentative link claims, so a private scratch per thread
/// makes concurrent probes over the same tables safe.
[[nodiscard]] ProbeResult probe_placement(const TaskGraph& g, const Platform& p, TaskId task,
                                          PeId pe, const Schedule& schedule,
                                          const ResourceTables& tables,
                                          TentativeTables& scratch);

/// Allocation-free form: also reuses the caller's Fig. 3 buffers.  The hot
/// probe loop (ProbeEngine) goes through this one.
[[nodiscard]] ProbeResult probe_placement(const TaskGraph& g, const Platform& p, TaskId task,
                                          PeId pe, const Schedule& schedule,
                                          const ResourceTables& tables, TentativeTables& scratch,
                                          CommScratch& comm_scratch);

/// Convenience overload that builds a throwaway overlay (tests, one-off
/// probes; hot loops should reuse a scratch or go through ProbeEngine).
[[nodiscard]] ProbeResult probe_placement(const TaskGraph& g, const Platform& p, TaskId task,
                                          PeId pe, const Schedule& schedule,
                                          const ResourceTables& tables);

/// Contention-free lower bound on F(i,k): the finish `task` would reach on
/// `pe` if every incoming transaction left the moment its sender finished,
///   DRT_lb = max(release, max over in-edges of sender.finish + transfer_time)
/// (control-only edges transfer in 0), placed in the earliest gap of the
/// current PE table.  Sound because every Fig. 3 transaction starts no
/// earlier than its sender's finish (so DRT_lb <= DRT(i,k)) and earliest_fit
/// is monotone in its not_before argument on a fixed table.  Reads no link
/// table, so it costs a fraction of probe_placement(); rules that consume
/// only part of a row use it to skip probes that cannot matter.
[[nodiscard]] Time finish_lower_bound(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                                      const Schedule& schedule, const ResourceTables& tables);

/// Throws noceas::Error unless every finish a list schedule of `g` on `p`
/// can reach fits in Time.  The checked horizon is
///   max release + sum of max exec times + sum of max transfer times,
/// which bounds every task finish, transaction end, probe and lower bound,
/// since each commit extends the latest occupied instant by at most its own
/// duration.  Every scheduler entry calls it before touching a table.
void require_time_horizon(const TaskGraph& g, const Platform& p);

/// Commits `task` to `pe`: schedules its receiving transactions for real,
/// reserves the PE slot, and records both in `schedule`.
/// Deterministic: produces exactly the timing probe_placement() reported.
void commit_placement(const TaskGraph& g, const Platform& p, TaskId task, PeId pe,
                      Schedule& schedule, ResourceTables& tables);

/// Builds the scheduler-independent part of a provenance record for a
/// *just-committed* placement of `task` on `pe` (src/audit/): the chosen
/// timing is read back from `schedule`, and every incoming transaction is
/// recorded together with the route its link reservations were made on.
/// The rule-specific candidate table is appended by the caller.  Pure —
/// recording never changes a scheduling decision.
[[nodiscard]] audit::PlacementDecision make_placement_record(const TaskGraph& g, const Platform& p,
                                                             TaskId task, PeId pe, Time budget,
                                                             const char* rule,
                                                             const std::vector<TaskId>& ready,
                                                             const Schedule& schedule);

/// Snapshot of a finished run for the provenance log: the schedule the
/// scheduler actually returned plus its claimed quality, the reference the
/// audit replay is compared against.
[[nodiscard]] audit::FinalRecord make_final_record(const Schedule& s, const EnergyBreakdown& e,
                                                   const MissReport& m);

/// Total energy cost of running `task` on `pe` given fixed predecessor
/// placements: computation energy plus incoming communication energy.
[[nodiscard]] Energy placement_energy(const TaskGraph& g, const Platform& p, TaskId task,
                                      PeId pe, const Schedule& schedule);

/// Sum of the version counters of every table a probe of (task, dest)
/// consults: the dest PE table plus the link tables of the route from each
/// placed sender to dest (data edges on distinct tiles only — the set Fig. 3
/// actually reads).  Because versions are monotonic and the consulted set is
/// fixed once all predecessors are placed, the sum is unchanged iff every
/// consulted table is unchanged — a cached F(i,k) tagged with this value is
/// exact for as long as the value reproduces.
[[nodiscard]] std::uint64_t probe_footprint_version(const TaskGraph& g, const Platform& p,
                                                    TaskId task, PeId dest,
                                                    const std::vector<TaskPlacement>& placements,
                                                    const ResourceTables& tables);

/// Instrumentation of the probe path (surfaced in EasResult/BaselineResult
/// so benches can report cache hit rates).
struct ProbeStats {
  std::uint64_t probes_issued = 0;     ///< F(i,k) evaluations the rule used
  std::uint64_t cache_hits = 0;        ///< served from a fresh cache entry
  std::uint64_t invalidations = 0;     ///< cached entries found stale
  std::uint64_t parallel_batches = 0;  ///< stale batches sent to the pool
  std::uint64_t parallel_probes = 0;   ///< probes evaluated by such batches
  std::uint64_t max_batch = 0;         ///< largest stale batch seen

  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(probes_issued + cache_hits);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }

  ProbeStats& operator+=(const ProbeStats& o) {
    probes_issued += o.probes_issued;
    cache_hits += o.cache_hits;
    invalidations += o.invalidations;
    parallel_batches += o.parallel_batches;
    parallel_probes += o.parallel_probes;
    max_batch = max_batch > o.max_batch ? max_batch : o.max_batch;
    return *this;
  }
};

/// Versioned, optionally parallel F(i,k) evaluator for one scheduler run.
///
/// refresh() brings the cache entries of a set of ready tasks (x all PEs) up
/// to date: fresh entries are kept (validated via probe_footprint_version),
/// stale ones are re-evaluated — in parallel when the shared pool has more
/// than one lane — and results are stored by (task, PE) slot, so the merge
/// is deterministic regardless of execution order.  One engine serves one
/// scheduler run over one ResourceTables instance.
struct ProbeEngineOptions {
  bool cache = true;     ///< false: re-evaluate every probe (seed behaviour)
  bool parallel = true;  ///< false: never use the shared pool
  /// Optional observability sinks.  A non-null tracer gets one
  /// "probe.batch" span per refresh(); a non-null registry gets the
  /// probe.batch_size / probe.batch_ns histograms.  Null = no overhead
  /// beyond one branch per refresh; never affects probe results.
  obs::Tracer* tracer = nullptr;
  obs::Registry* metrics = nullptr;
};

class ProbeEngine {
 public:
  using Options = ProbeEngineOptions;

  ProbeEngine(const TaskGraph& g, const Platform& p, const ResourceTables& tables,
              Options options = Options());

  /// Makes result(t, k) exact for every t in `tasks` and every PE k.
  void refresh(std::span<const TaskId> tasks, const Schedule& schedule);

  /// Lazy twin of refresh() for a single pair: validates the cached entry
  /// against the pair's footprint and re-probes only when stale (always on
  /// the calling thread).  Returns the exact F(i,k).  Lets a caller that
  /// consumes only a few pairs per iteration (the energy-ordered feasibility
  /// scan of the level scheduler) skip the rest of the row entirely.
  const ProbeResult& fresh(TaskId t, PeId k, const Schedule& schedule);

  /// Cached F(i,k) of the last refresh that covered (t, k).
  [[nodiscard]] const ProbeResult& result(TaskId t, PeId k) const {
    return entries_[t.index() * num_pes_ + k.index()].result;
  }

  /// Lazily memoized placement_energy(t, k); valid for the whole run because
  /// predecessor placements are fixed once t is ready.
  [[nodiscard]] Energy energy(TaskId t, PeId k, const Schedule& schedule);

  [[nodiscard]] const ProbeStats& stats() const { return stats_; }

 private:
  struct Entry {
    ProbeResult result;
    std::uint64_t footprint = 0;
    bool valid = false;
  };
  struct StaleItem {
    std::uint32_t task;
    std::uint32_t pe;
    std::uint64_t footprint;
  };

  const TaskGraph& g_;
  const Platform& p_;
  const ResourceTables& tables_;
  Options options_;
  std::size_t num_pes_;
  ThreadPool* pool_;  // nullptr when parallelism is off or pointless
  std::vector<Entry> entries_;
  std::vector<Energy> energy_;  // NaN = not yet computed
  std::vector<StaleItem> stale_;
  std::vector<TentativeTables> scratch_;   // one per pool lane
  std::vector<CommScratch> comm_scratch_;  // one per pool lane
  ProbeStats stats_;
  obs::Histogram* batch_size_h_ = nullptr;  // hoisted registry lookups
  obs::Histogram* batch_ns_h_ = nullptr;
};

/// Flat sorted set of ready tasks (the RTL), ordered by id for determinism.
/// Replaces the O(size) linear erase(find(...)) maintenance of the seed
/// schedulers with binary-search membership.
class ReadyList {
 public:
  /// Appends during initial construction; callers iterate tasks in
  /// ascending id order, keeping the invariant for free.
  void seed(TaskId t) { items_.push_back(t); }

  void insert(TaskId t);
  void erase(TaskId t);
  void erase_at(std::size_t i);

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] const std::vector<TaskId>& items() const { return items_; }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

 private:
  std::vector<TaskId> items_;
};

}  // namespace noceas
