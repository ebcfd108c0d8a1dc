// Unit tests for the Communication Task Graph structure and serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "src/ctg/serialize.hpp"
#include "src/ctg/task_graph.hpp"
#include "src/gen/tgff.hpp"
#include "src/msb/msb.hpp"

namespace noceas {
namespace {

TaskGraph small_graph() {
  TaskGraph g(2);
  g.add_task("a", {10, 20}, {1.0, 2.0});
  g.add_task("b", {30, 40}, {3.0, 4.0}, 100);
  g.add_task("c", {50, 60}, {5.0, 6.0});
  g.add_edge(TaskId{0}, TaskId{1}, 64);
  g.add_edge(TaskId{0}, TaskId{2}, 0);  // control dependency
  g.add_edge(TaskId{1}, TaskId{2}, 128);
  return g;
}

TEST(TaskGraph, BasicShape) {
  const TaskGraph g = small_graph();
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_pes(), 2u);
  EXPECT_EQ(g.in_degree(TaskId{2}), 2u);
  EXPECT_EQ(g.out_degree(TaskId{0}), 2u);
  EXPECT_EQ(g.task(TaskId{1}).deadline, 100);
  EXPECT_TRUE(g.task(TaskId{1}).has_deadline());
  EXPECT_FALSE(g.task(TaskId{0}).has_deadline());
}

TEST(TaskGraph, PredsAndSuccs) {
  const TaskGraph g = small_graph();
  const auto preds = g.preds(TaskId{2});
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0], TaskId{0});
  EXPECT_EQ(preds[1], TaskId{1});
  const auto succs = g.succs(TaskId{0});
  ASSERT_EQ(succs.size(), 2u);
}

TEST(TaskGraph, SourcesAndSinks) {
  const TaskGraph g = small_graph();
  EXPECT_EQ(g.sources(), std::vector<TaskId>{TaskId{0}});
  EXPECT_EQ(g.sinks(), std::vector<TaskId>{TaskId{2}});
}

TEST(TaskGraph, ControlEdgesAreMarked) {
  const TaskGraph g = small_graph();
  EXPECT_FALSE(g.edge(EdgeId{0}).is_control_only());
  EXPECT_TRUE(g.edge(EdgeId{1}).is_control_only());
}

TEST(TaskGraph, StatisticsMatchHandComputation) {
  const TaskGraph g = small_graph();
  EXPECT_DOUBLE_EQ(g.mean_exec_time(TaskId{0}), 15.0);
  EXPECT_DOUBLE_EQ(g.exec_time_variance(TaskId{0}), 25.0);  // population
  EXPECT_DOUBLE_EQ(g.energy_variance(TaskId{0}), 0.25);
  EXPECT_EQ(g.total_in_volume(TaskId{2}), 128);
}

TEST(TaskGraph, RejectsBadTaskInputs) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_task("x", {10}, {1.0, 1.0}), Error);       // wrong arity
  EXPECT_THROW(g.add_task("x", {10, 0}, {1.0, 1.0}), Error);    // zero time
  EXPECT_THROW(g.add_task("x", {10, 10}, {1.0, -1.0}), Error);  // negative energy
  EXPECT_THROW(g.add_task("x", {10, 10}, {1.0, 1.0}, 0), Error);  // zero deadline
}

TEST(TaskGraph, RejectsBadEdges) {
  TaskGraph g(1);
  g.add_task("a", {1}, {0.0});
  g.add_task("b", {1}, {0.0});
  EXPECT_THROW(g.add_edge(TaskId{0}, TaskId{0}, 1), Error);   // self loop
  EXPECT_THROW(g.add_edge(TaskId{0}, TaskId{5}, 1), Error);   // out of range
  EXPECT_THROW(g.add_edge(TaskId{0}, TaskId{1}, -1), Error);  // negative volume
}

TEST(TaskGraph, ValidateDetectsCycle) {
  TaskGraph g(1);
  g.add_task("a", {1}, {0.0});
  g.add_task("b", {1}, {0.0});
  g.add_edge(TaskId{0}, TaskId{1}, 1);
  g.add_edge(TaskId{1}, TaskId{0}, 1);
  EXPECT_THROW(g.validate(), Error);
}

TEST(TaskGraph, ValidateAcceptsDag) { EXPECT_NO_THROW(small_graph().validate()); }

TEST(TaskGraph, ZeroPesRejected) { EXPECT_THROW(TaskGraph(0), Error); }

TEST(TaskGraph, DotContainsTasksAndEdges) {
  std::ostringstream os;
  small_graph().to_dot(os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("128b"), std::string::npos);
  EXPECT_NE(dot.find("d=100"), std::string::npos);
}

// ---- serialization ------------------------------------------------------------

TEST(Serialize, RoundTripPreservesEverything) {
  const TaskGraph g = small_graph();
  const TaskGraph h = ctg_from_string(ctg_to_string(g));
  ASSERT_EQ(h.num_tasks(), g.num_tasks());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  ASSERT_EQ(h.num_pes(), g.num_pes());
  for (TaskId t : g.all_tasks()) {
    EXPECT_EQ(h.task(t).name, g.task(t).name);
    EXPECT_EQ(h.task(t).exec_time, g.task(t).exec_time);
    EXPECT_EQ(h.task(t).exec_energy, g.task(t).exec_energy);
    EXPECT_EQ(h.task(t).deadline, g.task(t).deadline);
  }
  for (EdgeId e : g.all_edges()) {
    EXPECT_EQ(h.edge(e).src, g.edge(e).src);
    EXPECT_EQ(h.edge(e).dst, g.edge(e).dst);
    EXPECT_EQ(h.edge(e).volume, g.edge(e).volume);
  }
}

TEST(Serialize, SkipsCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n\nctg 2 1 1\n"
      "# tasks\n"
      "task a - 0 5 1.5\n"
      "task b 99 3 7 2.5\n"
      "edge 0 1 42\n");
  const TaskGraph g = read_ctg(is);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.task(TaskId{1}).deadline, 99);
  EXPECT_EQ(g.task(TaskId{1}).release, 3);
  EXPECT_EQ(g.task(TaskId{0}).release, 0);
  EXPECT_EQ(g.edge(EdgeId{0}).volume, 42);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(ctg_from_string(""), Error);
  EXPECT_THROW(ctg_from_string("nope 1 0 1\n"), Error);
  EXPECT_THROW(ctg_from_string("ctg 1 0 1\n"), Error);              // missing task line
  EXPECT_THROW(ctg_from_string("ctg 1 0 1\ntask a - 0\n"), Error);  // missing arrays
  EXPECT_THROW(
      ctg_from_string("ctg 2 1 1\ntask a - 0 1 0\ntask b - 0 1 0\nedge 0 9 1\n"), Error);
  // Each of these is a noceas::Error whose message names the line: a
  // partial number, a surplus per-PE value, trailing tokens and lines.
  const std::pair<const char*, const char*> cases[] = {
      {"ctg 1 0 1\ntask a 12abc 0 1 0\n", "CTG line 2: deadline '12abc'"},
      {"ctg 1 0 1\ntask a abc 0 1 0\n", "CTG line 2: deadline 'abc'"},
      {"ctg 1 0 1\ntask a - 0 1 0 7\n", "CTG line 2: task 'a' has 3 per-PE values"},
      {"ctg 1 0 2\ntask a - 0 1 2 0\n", "CTG line 2: task 'a' has 3 per-PE values"},
      {"ctg 1 0 1 9\ntask a - 0 1 0\n", "CTG line 1: unexpected trailing token '9'"},
      {"ctg 2 1 1\ntask a - 0 1 0\ntask b - 0 1 0\nedge 0 1 5 5\n",
       "CTG line 4: unexpected trailing token '5'"},
      {"ctg 1 0 1\n# c\ntask a - 0 1 0\nedge 0 0 1\n", "CTG line 4: unexpected line"},
      {"ctg 1 0 1\ntask a - 0 1x 0\n", "CTG line 2: execution time '1x'"},
      {"ctg 1 0 1\ntask a - 0 1 0.5.5\n", "CTG line 2: energy '0.5.5'"},
      {"ctg 1 0 1\ntak a - 0 1 0\n", "CTG line 2: expected 'task', got 'tak'"},
      {"ctg 2 0 1\ntask a - 0 1 0\n", "expected a task line"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)ctg_from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << "message '" << e.what() << "' lacks '" << message << "'";
    }
  }
}

// The reader contract, one row per edge case: separators, comments and a
// leading '+' are accepted; non-finite, out-of-range, hexadecimal and
// negative-count spellings are rejected.
TEST(Serialize, EdgeCaseTable) {
  struct Row {
    const char* text;
    bool accepted;
  };
  const Row rows[] = {
      {"ctg 1 0 1\r\ntask a 9 0 1 0.5\r\n", true},           // CRLF
      {"ctg\t1 0\t\t1\ntask\ta - 0 1\t0.5\t\n", true},  // tabs
      {"  # lead\nctg 1 0 1\n\n \t\n#x y z\ntask a - 0 1 0.5\n# tail\n", true},
      {"ctg +1 0 +1\ntask a +9 +0 +1 +0.5\n", true},  // leading '+'
      {"ctg 1 0 1\ntask a - 0 1 1e-3\n", true},
      {"ctg 1 0 1\ntask a - 0 1 inf\n", false},
      {"ctg 1 0 1\ntask a - 0 1 nan\n", false},
      {"ctg 1 0 1\ntask a - 0 1 -inf\n", false},
      {"ctg 1 0 1\ntask a - 0 1 1e400\n", false},
      {"ctg 1 0 1\ntask a - 0 0x10 0.5\n", false},
      {"ctg 1 0 1\ntask a 0x10 0 1 0.5\n", false},
      {"ctg -1 0 1\ntask a - 0 1 0.5\n", false},
      {"ctg 1 -1 1\ntask a - 0 1 0.5\n", false},
      {"ctg 1 0 -1\ntask a - 0 1 0.5\n", false},
      {"ctg 1 0 1\ntask a - 0 1 ++0.5\n", false},
      {"ctg 1 0 1\ntask a - 0 1 +\n", false},
      {"ctg 1 0 1\ntask a - 99999999999999999999 1 0.5\n", false},
      {"ctg 2 1 1\ntask a - 0 1 0\ntask b - 0 1 0\nedge 0 1 99999999999999999999\n", false},
  };
  for (const Row& row : rows) {
    if (row.accepted) {
      EXPECT_NO_THROW((void)ctg_from_string(row.text)) << row.text;
    } else {
      EXPECT_THROW((void)ctg_from_string(row.text), Error) << row.text;
    }
  }
  const TaskGraph g = ctg_from_string("ctg +1 0 +1\ntask a +9 +0 +1 +0.5\n");
  EXPECT_EQ(g.task(TaskId{0}).deadline, 9);
  EXPECT_EQ(g.task(TaskId{0}).exec_time[0], 1);
  EXPECT_EQ(g.task(TaskId{0}).exec_energy[0], 0.5);
}

// A corrupt header count never sizes an allocation: a PE count of 10^12
// fails on the task line, a task count of 10^12 on the missing lines.
TEST(Serialize, HugeHeaderCountsFailWithoutAllocating) {
  EXPECT_THROW((void)ctg_from_string("ctg 1 0 1000000000000\ntask a - 0 1 0\n"), Error);
  EXPECT_THROW((void)ctg_from_string("ctg 1000000000000 0 1\ntask a - 0 1 0\n"), Error);
  EXPECT_THROW((void)ctg_from_string("ctg 1 1000000000000 1\ntask a - 0 1 0\n"), Error);
}

bool bitwise_equal(const std::vector<Energy>& a, const std::vector<Energy>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](Energy x, Energy y) {
           return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
         });
}

void expect_exact_round_trip(const TaskGraph& g, const std::string& label) {
  const std::string text = ctg_to_string(g);
  const TaskGraph h = ctg_from_string(text);
  ASSERT_EQ(h.num_tasks(), g.num_tasks()) << label;
  ASSERT_EQ(h.num_edges(), g.num_edges()) << label;
  ASSERT_EQ(h.num_pes(), g.num_pes()) << label;
  for (TaskId t : g.all_tasks()) {
    const Task& a = g.task(t);
    const Task& b = h.task(t);
    ASSERT_EQ(a.name, b.name) << label;
    ASSERT_EQ(a.deadline, b.deadline) << label << ' ' << a.name;
    ASSERT_EQ(a.release, b.release) << label << ' ' << a.name;
    ASSERT_EQ(a.exec_time, b.exec_time) << label << ' ' << a.name;
    ASSERT_TRUE(bitwise_equal(a.exec_energy, b.exec_energy)) << label << ' ' << a.name;
  }
  for (EdgeId e : g.all_edges()) {
    ASSERT_EQ(h.edge(e).src, g.edge(e).src) << label;
    ASSERT_EQ(h.edge(e).dst, g.edge(e).dst) << label;
    ASSERT_EQ(h.edge(e).volume, g.edge(e).volume) << label;
  }
  ASSERT_EQ(ctg_to_string(h), text) << label;
}

// Property: read(write(g)) == g, energies bit for bit, over 100 generated
// graphs (Categories I and II, every index, five seeds each) and the nine
// MSB applications.
TEST(Serialize, RoundTripIsExactOnGeneratedGraphs) {
  const PeCatalog catalog = make_hetero_catalog(4, 4, 42);
  int graphs = 0;
  for (int category : {1, 2}) {
    for (int index = 0; index < 10; ++index) {
      for (std::uint64_t seed = 0; seed < 5; ++seed) {
        TgffParams params = category_params(category, index);
        params.seed += seed * 1000;
        expect_exact_round_trip(generate_tgff_like(params, catalog),
                                "cat" + std::to_string(category) + "-i" +
                                    std::to_string(index) + "-s" + std::to_string(seed));
        ++graphs;
      }
    }
  }
  const PeCatalog c2 = msb_catalog_2x2();
  const PeCatalog c3 = msb_catalog_3x3();
  for (const ClipProfile& clip : all_clips()) {
    expect_exact_round_trip(make_av_encoder(clip, c2), "encoder");
    expect_exact_round_trip(make_av_decoder(clip, c2), "decoder");
    expect_exact_round_trip(make_av_encdec(clip, c3), "encdec");
    graphs += 3;
  }
  EXPECT_EQ(graphs, 109);
}

}  // namespace
}  // namespace noceas
