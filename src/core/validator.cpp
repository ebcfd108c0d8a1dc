#include "src/core/validator.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/util/interval.hpp"

namespace noceas {

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& issue : issues) os << issue << '\n';
  return os.str();
}

namespace {

class Reporter {
 public:
  explicit Reporter(ValidationReport& report) : report_(report) {}

  template <class... Args>
  void issue(Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    report_.issues.push_back(os.str());
  }

 private:
  ValidationReport& report_;
};

}  // namespace

ValidationReport validate_schedule(const TaskGraph& g, const Platform& p, const Schedule& s,
                                   const ValidateOptions& options) {
  ValidationReport report;
  Reporter r(report);

  if (s.tasks.size() != g.num_tasks() || s.comms.size() != g.num_edges()) {
    r.issue("schedule arity mismatch: ", s.tasks.size(), " tasks / ", s.comms.size(),
            " comms for a CTG with ", g.num_tasks(), " tasks / ", g.num_edges(), " edges");
    return report;
  }

  // ---- Task placements --------------------------------------------------
  for (TaskId t : g.all_tasks()) {
    const TaskPlacement& tp = s.at(t);
    const Task& task = g.task(t);
    if (!tp.placed()) {
      r.issue("task ", task.name, " not placed");
      continue;
    }
    if (tp.pe.index() >= p.num_pes()) {
      r.issue("task ", task.name, " on invalid PE ", tp.pe.value);
      continue;
    }
    if (tp.start < 0) r.issue("task ", task.name, " starts before time 0");
    if (tp.start < task.release) {
      r.issue("task ", task.name, " starts at ", tp.start, " before its release ", task.release);
    }
    const Duration exec = task.exec_time[tp.pe.index()];
    Time end = 0;
    if (__builtin_add_overflow(tp.start, exec, &end)) {
      r.issue("task ", task.name, " start ", tp.start, " + exec ", exec,
              " overflows the 64-bit time type");
      continue;
    }
    if (tp.finish != end) {
      r.issue("task ", task.name, " finish ", tp.finish, " != start ", tp.start, " + exec ", exec);
    }
    if (options.check_deadlines && task.has_deadline() && tp.finish > task.deadline) {
      r.issue("task ", task.name, " misses deadline: finish ", tp.finish, " > d ", task.deadline);
    }
  }
  if (!report.ok()) return report;  // structural problems make further checks noisy

  // ---- Definition 4: tasks on the same PE must not overlap ---------------
  {
    std::vector<std::vector<TaskId>> by_pe(p.num_pes());
    for (TaskId t : g.all_tasks()) by_pe[s.at(t).pe.index()].push_back(t);
    for (std::size_t k = 0; k < by_pe.size(); ++k) {
      auto& tasks = by_pe[k];
      std::sort(tasks.begin(), tasks.end(),
                [&](TaskId a, TaskId b) { return s.at(a).start < s.at(b).start; });
      for (std::size_t i = 1; i < tasks.size(); ++i) {
        const TaskPlacement& prev = s.at(tasks[i - 1]);
        const TaskPlacement& cur = s.at(tasks[i]);
        if (cur.start < prev.finish) {
          r.issue("tasks ", g.task(tasks[i - 1]).name, " and ", g.task(tasks[i]).name,
                  " overlap on PE ", p.pe(PeId{k}).name, ": [", prev.start, ',', prev.finish,
                  ") vs [", cur.start, ',', cur.finish, ')');
        }
      }
    }
  }

  // ---- Dependencies and per-transaction structure -------------------------
  for (EdgeId e : g.all_edges()) {
    const CommEdge& edge = g.edge(e);
    const CommPlacement& cp = s.at(e);
    const TaskPlacement& sender = s.at(edge.src);
    const TaskPlacement& receiver = s.at(edge.dst);
    const std::string ename = g.task(edge.src).name + "->" + g.task(edge.dst).name;

    if (!cp.placed()) {
      r.issue("transaction ", ename, " not placed");
      continue;
    }
    Time arrival = 0;
    if (__builtin_add_overflow(cp.start, cp.duration, &arrival)) {
      r.issue("transaction ", ename, " start ", cp.start, " + duration ", cp.duration,
              " overflows the 64-bit time type");
      continue;
    }
    if (cp.src_pe != sender.pe || cp.dst_pe != receiver.pe) {
      r.issue("transaction ", ename, " endpoints (", cp.src_pe.value, ',', cp.dst_pe.value,
              ") disagree with task placements (", sender.pe.value, ',', receiver.pe.value, ')');
      continue;
    }
    const Duration expected =
        edge.is_control_only() ? 0 : p.transfer_time(edge.volume, sender.pe, receiver.pe);
    if (cp.duration != expected) {
      r.issue("transaction ", ename, " duration ", cp.duration, " != expected ", expected);
    }
    if (cp.start < sender.finish) {
      r.issue("transaction ", ename, " starts at ", cp.start, " before sender finishes at ",
              sender.finish);
    }
    if (receiver.start < arrival) {
      r.issue("task ", g.task(edge.dst).name, " starts at ", receiver.start,
              " before transaction ", ename, " arrives at ", arrival);
    }
  }

  // ---- Definition 3: transactions sharing a link must not overlap --------
  {
    std::map<LinkId, std::vector<std::pair<Interval, EdgeId>>> by_link;
    for (EdgeId e : g.all_edges()) {
      const CommPlacement& cp = s.at(e);
      Time arrival = 0;
      if (!cp.uses_network() || __builtin_add_overflow(cp.start, cp.duration, &arrival)) continue;
      const Interval iv{cp.start, arrival};
      for (LinkId l : p.route(cp.src_pe, cp.dst_pe)) by_link[l].emplace_back(iv, e);
    }
    for (auto& [link, occs] : by_link) {
      std::sort(occs.begin(), occs.end(),
                [](const auto& a, const auto& b) { return a.first.start < b.first.start; });
      for (std::size_t i = 1; i < occs.size(); ++i) {
        if (occs[i].first.start < occs[i - 1].first.end) {
          const CommEdge& ea = g.edge(occs[i - 1].second);
          const CommEdge& eb = g.edge(occs[i].second);
          r.issue("transactions ", g.task(ea.src).name, "->", g.task(ea.dst).name, " and ",
                  g.task(eb.src).name, "->", g.task(eb.dst).name, " overlap on link ",
                  link.value, ": ", occs[i - 1].first, " vs ", occs[i].first);
        }
      }
    }
  }

  return report;
}

}  // namespace noceas
