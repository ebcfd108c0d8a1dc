#include "src/ctg/dag_algos.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

namespace noceas {

std::vector<TaskId> topological_order(const TaskGraph& g) {
  const std::size_t n = g.num_tasks();
  std::vector<std::size_t> in_deg(n);
  std::deque<TaskId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    in_deg[i] = g.in_degree(TaskId{i});
    if (in_deg[i] == 0) ready.emplace_back(i);
  }
  std::vector<TaskId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const TaskId t = ready.front();
    ready.pop_front();
    order.push_back(t);
    for (EdgeId e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      if (--in_deg[s.index()] == 0) ready.push_back(s);
    }
  }
  NOCEAS_REQUIRE(order.size() == n, "CTG contains a cycle (" << order.size() << '/' << n
                                                             << " tasks orderable)");
  return order;
}

ForwardPass forward_pass(const TaskGraph& g, const std::vector<double>& dur) {
  NOCEAS_REQUIRE(dur.size() == g.num_tasks(), "duration vector arity mismatch");
  const auto order = topological_order(g);
  ForwardPass fp;
  fp.earliest_start.assign(g.num_tasks(), 0.0);
  fp.earliest_finish.assign(g.num_tasks(), 0.0);
  fp.binding_pred.assign(g.num_tasks(), TaskId{});
  for (TaskId t : order) {
    double es = static_cast<double>(g.task(t).release);
    TaskId bind{};
    for (EdgeId e : g.in_edges(t)) {
      const TaskId p = g.edge(e).src;
      if (fp.earliest_finish[p.index()] > es) {
        es = fp.earliest_finish[p.index()];
        bind = p;
      }
    }
    fp.earliest_start[t.index()] = es;
    fp.earliest_finish[t.index()] = es + dur[t.index()];
    fp.binding_pred[t.index()] = bind;
  }
  return fp;
}

BackwardPass backward_pass(const TaskGraph& g, const std::vector<double>& dur) {
  NOCEAS_REQUIRE(dur.size() == g.num_tasks(), "duration vector arity mismatch");
  const auto order = topological_order(g);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BackwardPass bp;
  bp.latest_finish.assign(g.num_tasks(), kInf);
  bp.latest_start.assign(g.num_tasks(), kInf);
  bp.binding_succ.assign(g.num_tasks(), TaskId{});
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double lf = kInf;
    TaskId bind{};
    if (g.task(t).has_deadline()) lf = static_cast<double>(g.task(t).deadline);
    for (EdgeId e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      const double via = bp.latest_finish[s.index()] - dur[s.index()];
      if (via < lf) {
        lf = via;
        bind = s;
      }
    }
    bp.latest_finish[t.index()] = lf;
    bp.latest_start[t.index()] = lf - dur[t.index()];
    bp.binding_succ[t.index()] = bind;
  }
  return bp;
}

std::vector<double> mean_durations(const TaskGraph& g) {
  std::vector<double> dur(g.num_tasks());
  for (std::size_t i = 0; i < g.num_tasks(); ++i) dur[i] = g.mean_exec_time(TaskId{i});
  return dur;
}

double critical_path_length(const TaskGraph& g, const std::vector<double>& dur) {
  const auto fp = forward_pass(g, dur);
  double best = 0.0;
  for (double f : fp.earliest_finish) best = std::max(best, f);
  return best;
}

std::vector<double> static_levels(const TaskGraph& g, const std::vector<double>& dur) {
  NOCEAS_REQUIRE(dur.size() == g.num_tasks(), "duration vector arity mismatch");
  const auto order = topological_order(g);
  std::vector<double> sl(g.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double below = 0.0;
    for (EdgeId e : g.out_edges(t)) below = std::max(below, sl[g.edge(e).dst.index()]);
    sl[t.index()] = dur[t.index()] + below;
  }
  return sl;
}

std::vector<Time> effective_deadlines(const TaskGraph& g, const std::vector<double>& dur) {
  NOCEAS_REQUIRE(dur.size() == g.num_tasks(), "duration vector arity mismatch");
  const auto order = topological_order(g);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> eff(g.num_tasks(), kInf);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double d = g.task(t).has_deadline() ? static_cast<double>(g.task(t).deadline) : kInf;
    for (EdgeId e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      d = std::min(d, eff[s.index()] - dur[s.index()]);
    }
    eff[t.index()] = d;
  }
  std::vector<Time> out(g.num_tasks(), kNoDeadline);
  for (std::size_t i = 0; i < eff.size(); ++i) {
    if (std::isfinite(eff[i])) out[i] = static_cast<Time>(std::floor(eff[i]));
  }
  return out;
}

bool is_reachable(const TaskGraph& g, TaskId from, TaskId to) {
  if (from == to) return true;
  std::vector<bool> seen(g.num_tasks(), false);
  std::deque<TaskId> frontier{from};
  seen[from.index()] = true;
  while (!frontier.empty()) {
    const TaskId t = frontier.front();
    frontier.pop_front();
    for (EdgeId e : g.out_edges(t)) {
      const TaskId s = g.edge(e).dst;
      if (s == to) return true;
      if (!seen[s.index()]) {
        seen[s.index()] = true;
        frontier.push_back(s);
      }
    }
  }
  return false;
}

ReachabilityMatrix::ReachabilityMatrix(const TaskGraph& g)
    : words_((g.num_tasks() + 63) / 64), rows_(g.num_tasks() * words_, 0) {
  const auto order = topological_order(g);
  // Process in reverse topological order: reach(t) = {t} U union reach(succ).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t t = it->index();
    std::uint64_t* row = &rows_[t * words_];
    row[t / 64] |= std::uint64_t{1} << (t % 64);
    for (EdgeId e : g.out_edges(*it)) {
      const std::uint64_t* succ = &rows_[g.edge(e).dst.index() * words_];
      for (std::size_t w = 0; w < words_; ++w) row[w] |= succ[w];
    }
  }
}

}  // namespace noceas
