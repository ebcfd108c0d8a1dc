// DAG algorithms over the CTG used by slack budgeting, baselines and tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/ctg/task_graph.hpp"

namespace noceas {

/// Kahn topological order; throws noceas::Error when the graph has a cycle.
[[nodiscard]] std::vector<TaskId> topological_order(const TaskGraph& g);

/// Result of the forward earliest-finish pass with given per-task durations
/// (communication latency ignored, unbounded resources).
struct ForwardPass {
  std::vector<double> earliest_start;   ///< ES(t)
  std::vector<double> earliest_finish;  ///< EF(t) = ES(t) + dur(t)
  /// Predecessor on the binding (critical) path, invalid for sources.
  std::vector<TaskId> binding_pred;
};

/// Result of the backward latest-finish pass from deadlines.
struct BackwardPass {
  std::vector<double> latest_finish;  ///< LF(t) = min(d(t), min_s LF(s) - dur(s))
  std::vector<double> latest_start;   ///< LS(t) = LF(t) - dur(t)
  /// Successor on the binding path towards the constraining deadline,
  /// invalid for tasks constrained by their own deadline / unconstrained.
  std::vector<TaskId> binding_succ;
};

/// Earliest start/finish per task given `dur` (indexed by TaskId).
[[nodiscard]] ForwardPass forward_pass(const TaskGraph& g, const std::vector<double>& dur);

/// Latest start/finish per task propagating deadlines backwards; tasks with
/// no (transitive) deadline get +infinity.
[[nodiscard]] BackwardPass backward_pass(const TaskGraph& g, const std::vector<double>& dur);

/// Mean execution times of all tasks (M_t), indexed by TaskId.
[[nodiscard]] std::vector<double> mean_durations(const TaskGraph& g);

/// Length of the longest source-to-sink path under `dur` (zero-latency comm).
[[nodiscard]] double critical_path_length(const TaskGraph& g, const std::vector<double>& dur);

/// Static level SL(t): longest path from t to any sink, *including* dur(t)
/// (used by the DLS baseline of Sih & Lee).
[[nodiscard]] std::vector<double> static_levels(const TaskGraph& g, const std::vector<double>& dur);

/// Effective deadline per task: d_eff(t) = min(d(t), min over successors of
/// d_eff(s) - dur(s)).  Tasks with no transitive deadline keep kNoDeadline.
/// Used by the EDF baseline to order tasks without explicit deadlines.
[[nodiscard]] std::vector<Time> effective_deadlines(const TaskGraph& g,
                                                    const std::vector<double>& dur);

/// True when `to` is reachable from `from` by directed arcs (including
/// from == to).  Used by local task swapping to keep orders acyclic.
[[nodiscard]] bool is_reachable(const TaskGraph& g, TaskId from, TaskId to);

/// Dense reachability matrix: one row of ceil(num_tasks / 64) 64-bit words
/// per task, built by OR-ing successor rows in reverse topological order
/// (O(E * V / 64)); worthwhile when many reachability queries hit the same
/// graph (search & repair).
class ReachabilityMatrix {
 public:
  explicit ReachabilityMatrix(const TaskGraph& g);
  [[nodiscard]] bool reachable(TaskId from, TaskId to) const {
    const std::size_t j = to.index();
    return (rows_[from.index() * words_ + j / 64] >> (j % 64)) & 1u;
  }

 private:
  std::size_t words_;  // words per row
  std::vector<std::uint64_t> rows_;
};

}  // namespace noceas
