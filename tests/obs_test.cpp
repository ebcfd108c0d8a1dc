// Tests for the observability layer (src/obs/): metric semantics, the
// stable JSON schemas, Chrome trace-event export validity, and the
// determinism contract of multi-lane span merging.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/eas.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/json.hpp"

namespace noceas {
namespace {

// ---- Metric semantics ------------------------------------------------------

TEST(Metrics, CounterSemantics) {
  obs::Registry r;
  obs::Counter& c = r.counter("x", "things");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create: same name returns the same object.
  EXPECT_EQ(&r.counter("x", "things"), &c);
}

TEST(Metrics, GaugeSemantics) {
  obs::Registry r;
  obs::Gauge& g = r.gauge("g", "units");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-1.0);
  EXPECT_EQ(g.value(), -1.0);
  EXPECT_EQ(&r.gauge("g", "units"), &g);
}

TEST(Metrics, HistogramSemantics) {
  obs::Registry r;
  obs::Histogram& h = r.histogram("h", {1.0, 10.0, 100.0}, "ms");
  // Empty histogram reports zeros, not +-inf.
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.observe(0.5);    // bucket 0 (le 1)
  h.observe(1.0);    // boundary value lands in its own bucket (le 1)
  h.observe(50.0);   // bucket 2 (le 100)
  h.observe(999.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // implicit +inf bucket
  EXPECT_DOUBLE_EQ(h.sum(), 1050.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 999.0);
}

TEST(Metrics, ExpBuckets) {
  const std::vector<double> b = obs::exp_buckets(1.0, 4.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 64.0);
}

TEST(Metrics, NameCollisionAcrossKindsThrows) {
  obs::Registry r;
  r.counter("name", "u");
  EXPECT_THROW((void)r.gauge("name", "u"), Error);
  EXPECT_THROW((void)r.histogram("name", {1.0}, "u"), Error);
}

TEST(Metrics, HistogramReregisterDifferentBoundsThrows) {
  obs::Registry r;
  (void)r.histogram("h", {1.0, 2.0}, "u");
  EXPECT_NO_THROW((void)r.histogram("h", {1.0, 2.0}, "u"));
  EXPECT_THROW((void)r.histogram("h", {1.0, 3.0}, "u"), Error);
  EXPECT_THROW((void)r.histogram("bad", {2.0, 1.0}, "u"), Error);  // not increasing
}

TEST(Metrics, ValuesFlattensAllKinds) {
  obs::Registry r;
  r.counter("c", "u").inc(3);
  r.gauge("g", "u").set(1.5);
  obs::Histogram& h = r.histogram("h", {10.0}, "u");
  h.observe(4.0);
  h.observe(8.0);
  const auto v = r.values();
  EXPECT_EQ(v.at("c"), 3.0);
  EXPECT_EQ(v.at("g"), 1.5);
  EXPECT_EQ(v.at("h.count"), 2.0);
  EXPECT_EQ(v.at("h.sum"), 12.0);
  EXPECT_EQ(v.at("h.mean"), 6.0);
  EXPECT_EQ(v.at("h.max"), 8.0);
}

// ---- Metrics JSON ----------------------------------------------------------

/// Golden test: the serialized form is a stable schema ("noceas.metrics.v1.2")
/// that downstream tooling may depend on.  Deliberately brittle — change the
/// writer, change this test, bump the schema version.  v1.1 added the
/// per-histogram "mean" field (bounds were already in "buckets[].le"); v1.2
/// added per-histogram "p50"/"p95"/"p99" (bucket-interpolated estimates
/// clamped to the observed min/max).
TEST(Metrics, JsonGolden) {
  obs::Registry r;
  r.counter("runs", "count").inc(2);
  r.gauge("rate", "ratio").set(0.5);
  obs::Histogram& h = r.histogram("lat", {1.0, 8.0}, "ms");
  h.observe(0.5);
  h.observe(100.0);
  std::ostringstream os;
  r.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"noceas.metrics.v1.2\","
            "\"counters\":{\"runs\":{\"unit\":\"count\",\"value\":2}},"
            "\"gauges\":{\"rate\":{\"unit\":\"ratio\",\"value\":0.5}},"
            "\"histograms\":{\"lat\":{\"unit\":\"ms\",\"count\":2,\"sum\":100.5,"
            "\"mean\":50.25,\"min\":0.5,\"max\":100,"
            "\"p50\":1,\"p95\":90.8,\"p99\":98.16,"
            "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":8,\"count\":0},"
            "{\"le\":\"+inf\",\"count\":1}]}}}\n");
}

TEST(Metrics, JsonParsesBack) {
  obs::Registry r;
  r.counter("a.b", "u").inc();
  r.gauge("weird \"name\"\n", "u").set(-2.25);
  r.histogram("h", obs::exp_buckets(1.0, 2.0, 12), "ns").observe(3.0);
  std::ostringstream os;
  r.write_json(os);
  const json::Document parsed = json::parse(os.str());
  const json::View doc = parsed.root();
  EXPECT_EQ(doc.at("schema").str(), "noceas.metrics.v1.2");
  EXPECT_EQ(doc.at("counters").at("a.b").at("value").num(), 1.0);
  EXPECT_EQ(doc.at("gauges").at("weird \"name\"\n").at("value").num(), -2.25);
  const json::View h = doc.at("histograms").at("h");
  EXPECT_EQ(h.at("count").num(), 1.0);
  EXPECT_EQ(h.at("mean").num(), 3.0);
  ASSERT_EQ(h.at("buckets").size(), 13u);  // 12 bounds + overflow
  EXPECT_EQ(h.at("buckets")[12].at("le").str(), "+inf");
}

// ---- Tracer ----------------------------------------------------------------

TEST(Trace, NullSinkIsNoop) {
  obs::Tracer* tr = nullptr;
  OBS_SPAN(tr, "never");
  OBS_SPAN_NAMED(named, tr, "never2");
  named.arg(obs::Arg("k", 1));
  named.end();
  OBS_INSTANT(tr, "never3", obs::Arg("k", 2));
  obs::ScopedSpan default_constructed;
  SUCCEED();
}

// The macro-emission tests only make sense when the OBS_* macros are compiled
// in; under -DNOCEAS_OBS=OFF they expand to no-ops by design.
#if NOCEAS_OBS_ENABLED
TEST(Trace, SpansAndInstantsRecorded) {
  obs::Tracer tracer;
  {
    OBS_SPAN_NAMED(outer, &tracer, "outer", {obs::Arg("n", 3)});
    { OBS_SPAN(&tracer, "inner"); }
    OBS_INSTANT(&tracer, "tick", obs::Arg("i", 7), obs::Arg("label", "x"));
    outer.arg(obs::Arg("late", 1.5));
  }
  const auto events = tracer.merged();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by sequence id: outer opened first, then inner, then the instant.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].num_args, 2);  // "n" at open + "late" attached later
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "tick");
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_EQ(events[2].args[0].i, 7);
  EXPECT_STREQ(events[2].args[1].s, "x");
  EXPECT_GE(events[0].dur_ns, events[1].dur_ns);  // outer encloses inner
  EXPECT_EQ(tracer.dropped(), 0u);
}
#endif  // NOCEAS_OBS_ENABLED

TEST(Trace, EndClosesEarly) {
  obs::Tracer tracer;
  obs::ScopedSpan span(&tracer, "phase");
  span.end();
  span.end();  // idempotent
  span.arg(obs::Arg("ignored", 1));
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.merged()[0].num_args, 0);
}

TEST(Trace, RingOverwriteBoundsMemory) {
  obs::TracerOptions options;
  options.max_events_per_lane = 16;
  obs::Tracer tracer(options);
  for (int i = 0; i < 100; ++i) tracer.instant("e", {obs::Arg("i", i)});
  EXPECT_EQ(tracer.size(), 16u);
  EXPECT_EQ(tracer.dropped(), 84u);
  // The survivors are the newest events.
  const auto events = tracer.merged();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().args[0].i, 84);
  EXPECT_EQ(events.back().args[0].i, 99);
}

TEST(Trace, ChromeJsonParsesBack) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, "work",
                         {obs::Arg("n", 2), obs::Arg("ratio", 0.5), obs::Arg("who", "me")});
    tracer.instant("mark", {});
  }
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const json::Document parsed = json::parse(os.str());
  const json::View doc = parsed.root();

  const json::View events = doc.at("traceEvents");
  ASSERT_GE(events.size(), 3u);  // thread_name metadata + span + instant
  bool saw_meta = false, saw_span = false, saw_instant = false;
  for (const json::View e : events) {
    const std::string_view ph = e.at("ph").str();
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    if (ph == "M") {
      saw_meta = true;
      EXPECT_EQ(e.at("name").str(), "thread_name");
    } else if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(e.at("name").str(), "work");
      EXPECT_TRUE(e.has("dur"));
      EXPECT_EQ(e.at("args").at("n").num(), 2.0);
      EXPECT_EQ(e.at("args").at("ratio").num(), 0.5);
      EXPECT_EQ(e.at("args").at("who").str(), "me");
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("s").str(), "t");
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  EXPECT_EQ(doc.at("otherData").at("schema").str(), "noceas.trace.v1");
}

/// Non-finite double args must serialize as null, not as bare inf/nan
/// tokens (which are not JSON).
TEST(Trace, NonFiniteArgsSerializeAsNull) {
  obs::Tracer tracer;
  tracer.instant("e", {obs::Arg("inf", std::numeric_limits<double>::infinity())});
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const json::Document parsed = json::parse(os.str());  // throws on bare inf
  for (const json::View e : parsed.root().at("traceEvents")) {
    if (e.at("ph").str() == "i") {
      EXPECT_EQ(e.at("args").at("inf").kind(), json::Kind::Null);
    }
  }
}

/// The determinism contract: events emitted from multiple lanes merge into
/// the identical order on every run, because ordering is by sequence id —
/// never by timestamp or by which thread won a race.
TEST(Trace, MultiLaneMergeDeterministic) {
  auto run_once = [] {
    obs::Tracer tracer;
    std::vector<std::string> order;
    {
      OBS_SPAN(&tracer, "control");
      // Parallel emitters with caller-supplied sequence ids, like the probe
      // batch: item index keys the order, not thread scheduling.
      std::vector<std::thread> workers;
      for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&tracer, w] {
          for (int i = 0; i < 8; ++i) {
            tracer.instant_seq(1000 + static_cast<std::uint64_t>(w * 8 + i), "item",
                               {obs::Arg("key", w * 8 + i)});
          }
        });
      }
      for (std::thread& t : workers) t.join();
    }
    std::ostringstream signature;
    for (const obs::TraceEvent& e : tracer.merged()) {
      signature << e.seq << ':' << e.name;
      for (int i = 0; i < e.num_args; ++i) signature << '/' << e.args[i].i;
      signature << '\n';
    }
    return signature.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("1000:item/0"), std::string::npos);
  EXPECT_NE(first.find("1031:item/31"), std::string::npos);
}

// ---- Scheduler integration -------------------------------------------------

// The library's instrumentation sites are also compiled out under
// -DNOCEAS_OBS=OFF, so there is nothing to observe in that configuration.
#if NOCEAS_OBS_ENABLED
TEST(Trace, EasEmitsPhaseSpansAndDecisions) {
  const Platform p = make_mesh_platform(2, 2, {"A", "B", "C", "D"}, 10.0);
  TaskGraph g(4);
  g.add_task("a", {10, 12, 14, 16}, {4.0, 3.0, 2.0, 1.0}, 200);
  g.add_task("b", {10, 12, 14, 16}, {4.0, 3.0, 2.0, 1.0}, 200);
  g.add_task("c", {10, 12, 14, 16}, {4.0, 3.0, 2.0, 1.0}, 200);
  g.add_edge(TaskId{0}, TaskId{1}, 64);
  g.add_edge(TaskId{0}, TaskId{2}, 64);

  auto run = [&] {
    obs::Tracer tracer;
    obs::Registry registry;
    EasOptions options;
    options.tracer = &tracer;
    options.metrics = &registry;
    const EasResult r = schedule_eas(g, p, options);
    EXPECT_TRUE(r.misses.all_met());

    std::map<std::string, int> names;
    std::ostringstream signature;
    for (const obs::TraceEvent& e : tracer.merged()) {
      ++names[e.name];
      signature << e.seq << ':' << e.name << '\n';
    }
    EXPECT_EQ(names["eas.schedule"], 1);
    EXPECT_EQ(names["eas.slack_budget"], 1);
    EXPECT_GE(names["eas.attempt"], 1);
    EXPECT_EQ(names["eas.level"], 3);
    EXPECT_EQ(names["eas.decision"], 3);  // one per task
    EXPECT_GE(names["probe.batch"], 1);
    EXPECT_EQ(names["repair.run"], 1);

    const auto values = registry.values();
    EXPECT_EQ(values.at("eas.decisions"), 3.0);
    EXPECT_TRUE(values.count("probe.hit_rate"));
    EXPECT_TRUE(values.count("schedule.makespan"));
    EXPECT_TRUE(values.count("schedule.pe.0.busy_fraction"));
    return signature.str();
  };
  // Two runs produce the identical event sequence (timestamps aside) even
  // with the parallel probe pool active.
  EXPECT_EQ(run(), run());
}
#endif  // NOCEAS_OBS_ENABLED

}  // namespace
}  // namespace noceas
