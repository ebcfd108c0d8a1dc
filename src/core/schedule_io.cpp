#include "src/core/schedule_io.hpp"

#include <ostream>
#include <string>

#include "src/util/error.hpp"
#include "src/util/text_scan.hpp"

namespace noceas {

namespace {

// kUnsetTime is INT64_MIN, which would be ugly and fragile in a text file;
// unplaced entries round-trip through pe = -1 / start = 0 instead.
Time start_repr(Time t) { return t == kUnsetTime ? 0 : t; }

}  // namespace

void write_schedule_text(std::ostream& os, const Schedule& s) {
  os << "schedule " << s.tasks.size() << ' ' << s.comms.size() << '\n';
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    const TaskPlacement& t = s.tasks[i];
    os << "task " << i << ' ' << t.pe.value << ' ' << start_repr(t.start) << ' '
       << start_repr(t.finish) << '\n';
  }
  for (std::size_t i = 0; i < s.comms.size(); ++i) {
    const CommPlacement& c = s.comms[i];
    os << "comm " << i << ' ' << c.src_pe.value << ' ' << c.dst_pe.value << ' '
       << start_repr(c.start) << ' ' << c.duration << '\n';
  }
  NOCEAS_REQUIRE(os.good(), "failed writing schedule text");
}

Schedule schedule_from_string(std::string_view text) {
  TextScanner scan(text, "schedule text");
  scan.require_line("the 'schedule <tasks> <edges>' header");
  scan.keyword("schedule");
  const auto num_tasks = scan.number<std::size_t>("task count");
  const auto num_edges = scan.number<std::size_t>("comm count");
  scan.end_line();
  // Entries are appended as their lines are read: the header counts alone
  // never size an allocation.
  Schedule s;
  for (std::size_t i = 0; i < num_tasks; ++i) {
    scan.require_line("a task line");
    scan.keyword("task");
    if (scan.number<std::size_t>("task id") != i) scan.fail("expected task " + std::to_string(i));
    const auto pe = scan.number<std::int32_t>("pe");
    const auto start = scan.number<Time>("start");
    const auto finish = scan.number<Time>("finish");
    scan.end_line();
    TaskPlacement& t = s.tasks.emplace_back();
    t.pe = PeId(pe);
    if (pe < 0) continue;
    // The schedulers' horizon contract: placed times are non-negative and
    // a task never finishes before it starts.
    if (start < 0 || finish < start) {
      scan.fail("task times [" + std::to_string(start) + ", " + std::to_string(finish) +
                ") outside 0 <= start <= finish");
    }
    t.start = start;
    t.finish = finish;
  }
  for (std::size_t i = 0; i < num_edges; ++i) {
    scan.require_line("a comm line");
    scan.keyword("comm");
    if (scan.number<std::size_t>("comm id") != i) scan.fail("expected comm " + std::to_string(i));
    const auto src = scan.number<std::int32_t>("src pe");
    const auto dst = scan.number<std::int32_t>("dst pe");
    const auto start = scan.number<Time>("start");
    const auto duration = scan.number<Duration>("duration");
    scan.end_line();
    CommPlacement& c = s.comms.emplace_back();
    c.src_pe = PeId(src);
    c.dst_pe = PeId(dst);
    c.duration = duration;
    if (src < 0) continue;
    Time arrival = 0;
    if (start < 0 || duration < 0 || __builtin_add_overflow(start, duration, &arrival)) {
      scan.fail("comm start " + std::to_string(start) + " + duration " +
                std::to_string(duration) + " outside the 64-bit time range");
    }
    c.start = start;
  }
  if (scan.next_line()) scan.fail("unexpected line after the last comm");
  return s;
}

Schedule read_schedule_text(std::istream& is) {
  return schedule_from_string(read_stream_text(is));
}

}  // namespace noceas
