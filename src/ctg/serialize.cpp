#include "src/ctg/serialize.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/util/text_scan.hpp"

namespace noceas {

void write_ctg(std::ostream& os, const TaskGraph& g) {
  // Energies are doubles; emit them with round-trip precision so that a
  // serialized CTG schedules identically to the original.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "ctg " << g.num_tasks() << ' ' << g.num_edges() << ' ' << g.num_pes() << '\n';
  for (TaskId t : g.all_tasks()) {
    const Task& task = g.task(t);
    os << "task " << task.name << ' ';
    if (task.has_deadline())
      os << task.deadline;
    else
      os << '-';
    os << ' ' << task.release;
    for (Duration d : task.exec_time) os << ' ' << d;
    for (Energy e : task.exec_energy) os << ' ' << e;
    os << '\n';
  }
  for (EdgeId e : g.all_edges()) {
    const CommEdge& edge = g.edge(e);
    os << "edge " << edge.src.value << ' ' << edge.dst.value << ' ' << edge.volume << '\n';
  }
  NOCEAS_REQUIRE(os.good(), "stream failure while writing CTG");
}

TaskGraph ctg_from_string(std::string_view text) {
  TextScanner scan(text, "CTG");
  scan.require_line("the 'ctg <tasks> <edges> <pes>' header");
  scan.keyword("ctg");
  const auto n_tasks = scan.number<std::size_t>("task count");
  const auto n_edges = scan.number<std::size_t>("edge count");
  const auto n_pes = scan.number<std::size_t>("PE count");
  scan.end_line();

  TaskGraph g(n_pes);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    scan.require_line("a task line");
    scan.keyword("task");
    std::string name(scan.token("task name"));
    const std::string_view deadline_tok = scan.token("deadline");
    const Time deadline =
        deadline_tok == "-" ? kNoDeadline : scan.parse_number<Time>(deadline_tok, "deadline");
    const auto release = scan.number<Time>("release");
    // Size the per-PE arrays from the line itself, never from the header
    // alone: a corrupt PE count must not drive an allocation.
    const std::size_t left = scan.tokens_left();
    if (left / 2 != n_pes || left % 2 != 0) {
      scan.fail("task '" + name + "' has " + std::to_string(left) +
                " per-PE values, expected 2 x " + std::to_string(n_pes));
    }
    std::vector<Duration> times(n_pes);
    std::vector<Energy> energies(n_pes);
    for (auto& t : times) t = scan.number<Duration>("execution time");
    for (auto& e : energies) e = scan.number<Energy>("energy");
    g.add_task(std::move(name), std::move(times), std::move(energies), deadline, release);
  }
  for (std::size_t i = 0; i < n_edges; ++i) {
    scan.require_line("an edge line");
    scan.keyword("edge");
    const auto src = scan.number<std::int32_t>("edge source");
    const auto dst = scan.number<std::int32_t>("edge target");
    const auto volume = scan.number<Volume>("volume");
    scan.end_line();
    g.add_edge(TaskId{src}, TaskId{dst}, volume);
  }
  if (scan.next_line()) scan.fail("unexpected line after the last edge");
  g.validate();
  return g;
}

TaskGraph read_ctg(std::istream& is) { return ctg_from_string(read_stream_text(is)); }

std::string ctg_to_string(const TaskGraph& g) {
  std::ostringstream os;
  write_ctg(os, g);
  return os.str();
}

}  // namespace noceas
