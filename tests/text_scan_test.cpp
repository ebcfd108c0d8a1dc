// Tests of the shared line/token scanner and a seeded fuzz run of the three
// text readers built on it (CTG, platform, schedule): every mutant of a
// valid file either parses or throws noceas::Error, and a CTG that survives
// re-serializes to a fixed point.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "src/baseline/edf.hpp"
#include "src/core/schedule_io.hpp"
#include "src/ctg/serialize.hpp"
#include "src/gen/tgff.hpp"
#include "src/noc/platform_io.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/text_scan.hpp"

namespace noceas {
namespace {

// ---- scanner ----------------------------------------------------------------

TEST(TextScanner, SkipsBlankAndCommentLinesAndSplitsOnSpaceTabCr) {
  TextScanner scan("\n  # c\n\t\r\na\t b\r\n#x\n  c  ", "test");
  ASSERT_TRUE(scan.next_line());
  EXPECT_EQ(scan.tokens_left(), 2u);
  EXPECT_EQ(scan.token("first"), "a");
  EXPECT_EQ(scan.token("second"), "b");
  EXPECT_TRUE(scan.at_line_end());
  ASSERT_TRUE(scan.next_line());
  EXPECT_EQ(scan.token("third"), "c");
  scan.end_line();
  EXPECT_FALSE(scan.next_line());
}

TEST(TextScanner, NumbersAreWholeFiniteInRangeTokens) {
  TextScanner scan("x", "test");
  EXPECT_EQ(scan.parse_number<int>("+7", "n"), 7);
  EXPECT_EQ(scan.parse_number<int>("-7", "n"), -7);
  EXPECT_EQ(scan.parse_number<std::int64_t>("9223372036854775807", "n"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(scan.parse_number<double>("+2.5e-3", "n"), 2.5e-3);
  EXPECT_EQ(scan.parse_number<double>("17", "n"), 17.0);
  const char* bad_ints[] = {"", "+", "-", "++1", "+-1", "1x", "0x10", "1.0", "1e3",
                            " 1", "9223372036854775808"};
  for (const char* tok : bad_ints) {
    EXPECT_THROW((void)scan.parse_number<std::int64_t>(tok, "n"), Error) << tok;
  }
  EXPECT_THROW((void)scan.parse_number<std::size_t>("-1", "n"), Error);
  EXPECT_THROW((void)scan.parse_number<std::size_t>("-0", "n"), Error);
  const char* bad_doubles[] = {"inf", "-inf", "+inf", "nan", "NaN", "infinity",
                               "1e400", "-1e400", "0x1p3", "1.5.", "e5", "1e"};
  for (const char* tok : bad_doubles) {
    EXPECT_THROW((void)scan.parse_number<double>(tok, "n"), Error) << tok;
  }
}

TEST(TextScanner, ErrorsNameTheFormatAndLine) {
  TextScanner scan("# head\nkey 12abc extra\n", "widget");
  ASSERT_TRUE(scan.next_line());
  scan.keyword("key");
  try {
    (void)scan.number<int>("size");
    FAIL() << "12abc accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "widget line 2: size '12abc' is not a number");
  }
  try {
    scan.end_line();
    FAIL() << "trailing token accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "widget line 2: unexpected trailing token 'extra'");
  }
  EXPECT_FALSE(scan.next_line());
  EXPECT_THROW(scan.require_line("a footer"), Error);
}

TEST(TextScanner, IstreamOverloadsReadTheWholeStream) {
  std::istringstream is("ctg 1 0 1\ntask a - 0 1 0.5\n");
  const TaskGraph g = read_ctg(is);
  EXPECT_EQ(g.num_tasks(), 1u);
  std::istringstream empty;
  EXPECT_THROW((void)read_ctg(empty), Error);
}

// ---- fuzz -------------------------------------------------------------------

struct Inputs {
  std::string ctg;
  std::string platform;
  std::string schedule;
};

/// A serialized 8-task CTG, its 2x2 platform and its EDF schedule.
const Inputs& inputs() {
  static const Inputs in = [] {
    const PeCatalog catalog = make_hetero_catalog(2, 2, 7);
    TgffParams params;
    params.num_tasks = 8;
    params.num_edges = 10;
    params.avg_layer_width = 3.0;
    params.seed = 5;
    const TaskGraph g = generate_tgff_like(params, catalog);
    const Platform p = make_platform_for(catalog, 2, 2);
    std::ostringstream schedule;
    write_schedule_text(schedule, schedule_edf(g, p).schedule);
    return Inputs{ctg_to_string(g), platform_to_string(p), schedule.str()};
  }();
  return in;
}

/// Applies 1-4 random byte flips, truncations and insertions of characters
/// that number and line syntax care about.
std::string mutate(std::string text, Rng& rng) {
  static constexpr std::string_view kInserts = "+-.e#\r\t\n 0123456789";
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::int64_t edits = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < edits && !text.empty(); ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip one bit
        text[pick(text.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
        break;
      case 1:  // truncate
        text.resize(pick(text.size()));
        break;
      case 2:  // overwrite with a syntax character
        text[pick(text.size())] = kInserts[pick(kInserts.size())];
        break;
      default:  // insert a syntax character
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pick(text.size() + 1)),
                    kInserts[pick(kInserts.size())]);
        break;
    }
  }
  return text;
}

constexpr int kMutants = 20000;

/// Runs `parse` on kMutants mutants of `text`; any exception other than
/// noceas::Error escapes and fails the test.  Returns the survivors.
template <class Parse>
int fuzz(const std::string& text, std::uint64_t seed, Parse parse) {
  Rng rng(seed);
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(text, rng);
    try {
      parse(mutant);
      ++parsed;
    } catch (const Error&) {
    }
  }
  return parsed;
}

TEST(TextFuzz, CtgMutantsParseOrThrowAndSurvivorsAreFixedPoints) {
  const int parsed = fuzz(inputs().ctg, 11, [](const std::string& text) {
    const TaskGraph g = ctg_from_string(text);
    const std::string once = ctg_to_string(g);
    ASSERT_EQ(ctg_to_string(ctg_from_string(once)), once) << text;
  });
  // Some mutants (digit changes inside values) must survive, or the run
  // shows nothing about the accepted side.
  EXPECT_GT(parsed, kMutants / 50);
  EXPECT_LT(parsed, kMutants);
}

TEST(TextFuzz, PlatformMutantsParseOrThrow) {
  const int parsed = fuzz(inputs().platform, 12, [](const std::string& text) {
    const Platform p = platform_from_string(text);
    (void)platform_from_string(platform_to_string(p));
  });
  EXPECT_GT(parsed, kMutants / 50);
  EXPECT_LT(parsed, kMutants);
}

TEST(TextFuzz, ScheduleMutantsParseOrThrow) {
  const int parsed = fuzz(inputs().schedule, 13, [](const std::string& text) {
    const Schedule s = schedule_from_string(text);
    std::ostringstream os;
    write_schedule_text(os, s);
    (void)schedule_from_string(os.str());
  });
  EXPECT_GT(parsed, kMutants / 50);
  EXPECT_LT(parsed, kMutants);
}

}  // namespace
}  // namespace noceas
