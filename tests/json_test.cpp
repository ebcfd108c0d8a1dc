// Tests of the shared JSON reader/writer (src/util/json.hpp) and of the
// decision-stream bytes it carries.
//
// - exact, range-checked integers and the escaping contract;
// - goldens: tests/golden/decisions_*.jsonl were written by the
//   ostream-based decision-stream writer that the buffered writer replaced,
//   so these tests pin the stream format byte for byte;
// - a seeded mutation fuzz over those goldens and a campaign manifest and
//   shard file: every mutant must parse or throw noceas::Error, nothing
//   else (tools/ci_sanitize.sh runs it under ASan/UBSan).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "src/audit/decision_log.hpp"
#include "src/baseline/edf.hpp"
#include "src/campaign/manifest_io.hpp"
#include "src/campaign/shard.hpp"
#include "src/core/eas.hpp"
#include "src/gen/tgff.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas {
namespace {

std::string golden(const std::string& name) {
  std::ifstream is(std::string(NOCEAS_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden " << name;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ---- reader contract -------------------------------------------------------

TEST(JsonReader, ParsesNestedDocumentWithContiguousChildren) {
  const json::Document doc =
      json::parse(R"( {"a":[1,{"b":true},null,"x"],"c":{"d":-2.5e1},"e":[]} )");
  const json::View root = doc.root();
  ASSERT_EQ(root.kind(), json::Kind::Obj);
  EXPECT_EQ(root.size(), 3u);
  const json::View a = root.at("a");
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].i64(), 1);
  EXPECT_TRUE(a[1].at("b").boolean());
  EXPECT_EQ(a[2].kind(), json::Kind::Null);
  EXPECT_TRUE(std::isnan(a[2].num()));
  EXPECT_EQ(a[3].str(), "x");
  EXPECT_EQ(root.at("c").at("d").num(), -25.0);
  EXPECT_EQ(root.at("e").size(), 0u);
  std::string keys;
  for (const json::View m : root) keys += m.key();
  EXPECT_EQ(keys, "ace");
  EXPECT_FALSE(root.has("z"));
  EXPECT_THROW((void)root.at("z"), Error);
  EXPECT_THROW((void)a.at("b"), Error);
  EXPECT_THROW((void)a[4], Error);
  EXPECT_THROW((void)a[3].i64(), Error);
}

TEST(JsonReader, IntegersAreExactAndRangeChecked) {
  const json::Document doc = json::parse(
      R"({"big":9007199254740993,"max":9223372036854775807,"over":9223372036854775808,)"
      R"("u":18446744073709551615,"neg":-1,"i32":2147483648,"frac":1.5,"exp":1e30,"zero":-0})");
  const json::View j = doc.root();
  EXPECT_EQ(j.at("big").i64(), 9007199254740993LL);
  EXPECT_EQ(j.at("max").i64(), INT64_MAX);
  EXPECT_THROW((void)j.at("over").i64(), Error);
  EXPECT_EQ(j.at("u").u64(), UINT64_MAX);
  EXPECT_THROW((void)j.at("neg").u64(), Error);
  EXPECT_EQ(j.at("neg").i32(), -1);
  EXPECT_EQ(j.at("i32").i64(), 2147483648LL);
  EXPECT_THROW((void)j.at("i32").i32(), Error);
  EXPECT_THROW((void)j.at("frac").i64(), Error);
  EXPECT_THROW((void)j.at("exp").i64(), Error);
  EXPECT_EQ(j.at("exp").num(), 1e30);
  EXPECT_EQ(j.at("zero").i64(), 0);
}

TEST(JsonReader, RejectsMalformedText) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\"1}", "{\"a\":01}", "-", "1.", "1e", ".5",
                          "+1", "tru", "nul", "\"abc", "\"\\x\"", "\"\\u12\"", "\"\\ud800\"",
                          "{} {}", "[1 2]", "{1:2}", "nan"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)json::parse(bad, "test"), Error);
  }
  std::string deep(100000, '[');
  EXPECT_THROW((void)json::parse(deep), Error);
}

TEST(JsonReader, DecodesEveryEscape) {
  const json::Document doc =
      json::parse(R"(["\"\\\/\b\f\n\r\t","\u0041\u00e9\u20ac\ud83d\ude00","\u0001"])");
  const json::View a = doc.root();
  EXPECT_EQ(a[0].str(), "\"\\/\b\f\n\r\t");
  EXPECT_EQ(a[1].str(), "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(a[2].str(), std::string_view("\x01", 1));
}

TEST(JsonReader, DocumentIsReusableAndMovable) {
  json::Document doc;
  doc.parse(R"({"k":"short"})");
  EXPECT_EQ(doc.root().at("k").str(), "short");
  doc.parse("[7]");
  EXPECT_EQ(doc.root()[0].i64(), 7);
  EXPECT_THROW(doc.parse("[7", "ctx"), Error);
  EXPECT_THROW((void)doc.root(), Error);  // a failed parse leaves no document
  json::Document moved = json::parse(R"({"s":"ab"})");
  const json::Document target = std::move(moved);
  EXPECT_EQ(target.root().at("s").str(), "ab");
}

TEST(JsonWriter, EscapesEveryControlByte) {
  std::string s;
  for (int c = 0; c < 0x20; ++c) s += static_cast<char>(c);
  s += "\"\\/\x7f\xc3\xa9";
  std::string out;
  json::append_string(out, s);
  for (const char c : out) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\u0009"), std::string::npos);
  EXPECT_NE(out.find("\\u001f"), std::string::npos);
  EXPECT_EQ(json::parse(out).root().str(), s);

  std::string nums;
  json::append_double(nums, 0.1);
  nums += ',';
  json::append_double(nums, std::nan(""));
  nums += ',';
  json::append_int(nums, INT64_MIN);
  EXPECT_EQ(nums, "0.1,null,-9223372036854775808");
}

// ---- decision streams ------------------------------------------------------

audit::DecisionStream tiny_stream() {
  audit::DecisionStream s;
  s.scheduler = "eas";
  s.num_tasks = 1;
  s.num_pes = 1;
  audit::DecisionEvent e;
  e.kind = audit::DecisionEvent::Kind::Place;
  e.place.task = 0;
  e.place.pe = 0;
  e.place.rule = "urgent";
  e.place.candidates.push_back({0, 0, 5, 1.25, true, 0.5});
  s.events.push_back(e);
  return s;
}

audit::DecisionStream round_trip(const audit::DecisionStream& s, std::string* text = nullptr) {
  std::stringstream io;
  audit::write_decision_jsonl(io, s);
  if (text != nullptr) *text = io.str();
  return audit::read_decision_stream(io);
}

std::string write(const audit::DecisionStream& s) {
  std::ostringstream os;
  audit::write_decision_jsonl(os, s);
  return os.str();
}

TEST(DecisionStreamJson, TimeAbove2Pow53RoundTripsExactly) {
  audit::DecisionStream s = tiny_stream();
  constexpr Time kBig = (Time{1} << 53) + 1;  // not representable as a double
  s.events[0].place.finish = kBig;
  s.events[0].place.candidates[0].finish = kBig;
  std::string text;
  const audit::DecisionStream back = round_trip(s, &text);
  EXPECT_NE(text.find("\"finish\":9007199254740993"), std::string::npos);
  EXPECT_EQ(back.events[0].place.finish, kBig);
  EXPECT_EQ(back.events[0].place.candidates[0].finish, kBig);
}

TEST(DecisionStreamJson, Int32OverflowInTaskIsRejected) {
  std::string text = write(tiny_stream());
  const std::string from = "\"task\":0,\"pe\":0,\"start\"";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"task\":2147483648,\"pe\":0,\"start\"");
  std::istringstream is(text);
  EXPECT_THROW((void)audit::read_decision_stream(is), Error);
}

TEST(DecisionStreamJson, ExponentInIntegerFieldIsRejected) {
  std::string text = write(tiny_stream());
  const std::size_t at = text.find("\"finish\":0");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "\"finish\":1e30");
  std::istringstream is(text);
  EXPECT_THROW((void)audit::read_decision_stream(is), Error);
}

TEST(DecisionStreamJson, ControlBytesInStringsRoundTripAsValidJson) {
  audit::DecisionStream s = tiny_stream();
  s.scheduler = std::string("eas\tx\x01y", 7);
  s.events[0].place.rule = "tab\there";
  std::string text;
  const audit::DecisionStream back = round_trip(s, &text);
  EXPECT_EQ(back.scheduler, s.scheduler);
  EXPECT_EQ(back.events[0].place.rule, s.events[0].place.rule);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    for (const char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << line;
    EXPECT_NO_THROW((void)json::parse(line));
  }
}

// ---- goldens ---------------------------------------------------------------

struct GoldenInstance {
  TaskGraph g;
  Platform p;
};

/// The 8-task, 2x2-mesh instance the decision goldens were recorded on:
/// tight deadlines make EAS-base miss, so the EAS stream carries an
/// attempt, an LTS and a GTM repair move, repair_begin and repair_end.
GoldenInstance golden_instance() {
  constexpr std::uint64_t kSeed = 192;
  const PeCatalog catalog = make_hetero_catalog(2, 2, kSeed * 31 + 5);
  TgffParams params;
  params.num_tasks = 8;
  params.num_edges = 16;
  params.avg_layer_width = 3.0;
  params.seed = kSeed * 977 + 11;
  params.deadline_tightness_min = 0.7;
  params.deadline_tightness_max = 1.0;
  params.interior_deadline_fraction = 0.2;
  return {generate_tgff_like(params, catalog), make_platform_for(catalog, 2, 2)};
}

TEST(DecisionGolden, EasRepairStreamIsByteIdentical) {
  const GoldenInstance in = golden_instance();
  audit::DecisionLog log;
  EasOptions options;
  options.decisions = &log;
  (void)schedule_eas(in.g, in.p, options);
  std::ostringstream os;
  log.write_jsonl(os);
  const std::string expected = golden("decisions_eas_repair.jsonl");
  EXPECT_EQ(os.str(), expected);
  for (const char* type : {"\"attempt\"", "\"repair_begin\"", "\"kind\":\"lts\"",
                           "\"kind\":\"gtm\"", "\"repair_end\"", "\"final\""}) {
    EXPECT_NE(expected.find(type), std::string::npos) << type;
  }
}

TEST(DecisionGolden, EdfStreamIsByteIdentical) {
  const GoldenInstance in = golden_instance();
  audit::DecisionLog log;
  BaselineObs obs;
  obs.decisions = &log;
  (void)schedule_edf(in.g, in.p, obs);
  std::ostringstream os;
  log.write_jsonl(os);
  EXPECT_EQ(os.str(), golden("decisions_edf.jsonl"));
}

TEST(DecisionGolden, WriteOfReadReproducesGoldens) {
  for (const char* name : {"decisions_eas_repair.jsonl", "decisions_edf.jsonl"}) {
    SCOPED_TRACE(name);
    const std::string text = golden(name);
    std::istringstream is(text);
    EXPECT_EQ(write(audit::read_decision_stream(is)), text);
  }
}

// ---- mutation fuzz ---------------------------------------------------------

/// Applies 1-3 random edits: a byte flip, a truncation, or an inserted
/// JSON-significant byte.
std::string mutate(const std::string& src, std::mt19937_64& rng) {
  static constexpr std::string_view kInsert = "\"{}[],:-.e0";
  std::string m = src;
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int k = 0; k < edits && !m.empty(); ++k) {
    const std::size_t at = rng() % m.size();
    switch (rng() % 3) {
      case 0: m[at] = static_cast<char>(m[at] ^ (1u << (rng() % 8))); break;
      case 1: m.resize(at); break;
      default:
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), kInsert[rng() % kInsert.size()]);
    }
  }
  return m;
}

/// Runs `f`; anything but success or noceas::Error is a finding.
template <typename F>
void expect_parse_or_error(const std::string& mutant, F&& f, int& findings) {
  try {
    f();
  } catch (const Error&) {
  } catch (const std::exception& e) {
    if (++findings <= 5) {
      ADD_FAILURE() << "non-Error exception '" << e.what() << "' on mutant:\n" << mutant;
    }
  }
}

TEST(ParserFuzz, MutantsParseOrThrowError) {
  struct Seed {
    std::string text;
    bool decisions;
    bool manifest;
  };
  const std::vector<Seed> corpus = {
      {golden("decisions_eas_repair.jsonl"), true, false},
      {golden("decisions_edf.jsonl"), true, false},
      {golden("campaign_manifest.json"), false, true},
      {golden("campaign_shard.jsonl"), false, false},
  };
  constexpr int kMutants = 20000;
  std::mt19937_64 rng(20260417);
  int findings = 0;
  int accepted = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kMutants; ++i) {
    const Seed& seed = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const std::string m = mutate(seed.text, rng);
    // Every line on its own through the bare parser.
    std::istringstream lines(m);
    std::string line;
    while (std::getline(lines, line)) {
      expect_parse_or_error(m, [&] { (void)json::parse(line, "fuzz"); }, findings);
    }
    if (seed.decisions) {
      expect_parse_or_error(m, [&] {
        std::istringstream is(m);
        const audit::DecisionStream s = audit::read_decision_stream(is);
        ++accepted;
        // A stream that reads back writes a fixed point.
        const std::string once = write(s);
        std::istringstream again(once);
        EXPECT_EQ(write(audit::read_decision_stream(again)), once);
      }, findings);
    } else if (seed.manifest) {
      expect_parse_or_error(m, [&] {
        std::istringstream is(m);
        (void)campaign::read_manifest_json(is);
        ++accepted;
      }, findings);
    } else {
      expect_parse_or_error(m, [&] {
        std::istringstream is(m);
        (void)campaign::read_shard_manifest(is, /*lenient=*/false);
        ++accepted;
      }, findings);
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(findings, 0);
  EXPECT_GT(accepted, 0) << "no mutant survived; the fuzz only exercises error paths";
  RecordProperty("accepted_mutants", accepted);
  RecordProperty("seconds", std::to_string(seconds));
}

}  // namespace
}  // namespace noceas
