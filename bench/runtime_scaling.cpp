// Reproduces the runtime observations of Sec. 6.1 with google-benchmark:
// "However, it does increase the run time of the scheduler.  For the
// aforementioned four benchmarks, the run time increase from 1.77 sec.,
// 2.45 sec., 3.23 sec. and 2.34 sec. to 2.17 sec., ..."
//
// We measure (a) EAS-base vs full EAS on the random benchmarks where
// search & repair actually fires (the Category II miss benchmarks), showing
// the same "repair costs extra runtime" effect, and (b) how scheduler
// runtime scales with task count.
// A second entry point, `runtime_scaling --obs-smoke`, asserts the two
// hard promises of the observability layer (docs/OBSERVABILITY.md): an
// attached tracer/registry — and separately an attached span-statistics
// profiler — leaves the schedule bit-identical, and its runtime overhead
// stays under 5% (best of adjacent plain/instrumented pairs).
// ci_sanitize.sh runs it as a smoke gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/decision_log.hpp"
#include "src/baseline/edf.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/shard.hpp"
#include "src/core/eas.hpp"
#include "src/core/obs_export.hpp"
#include "src/gen/tgff.hpp"
#include "src/obs/profile.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/log.hpp"

using namespace noceas;

namespace {

const PeCatalog& catalog_4x4() {
  static const PeCatalog catalog = make_hetero_catalog(4, 4, /*seed=*/42);
  return catalog;
}

const Platform& platform_4x4() {
  static const Platform platform = make_platform_for(catalog_4x4(), 4, 4);
  return platform;
}

/// Category II benchmarks where EAS-base misses deadlines (repair fires).
const TaskGraph& miss_benchmark(int index) {
  static const TaskGraph b2 = generate_tgff_like(category_params(2, 2), catalog_4x4());
  static const TaskGraph b4 = generate_tgff_like(category_params(2, 4), catalog_4x4());
  static const TaskGraph b5 = generate_tgff_like(category_params(2, 5), catalog_4x4());
  static const TaskGraph b8 = generate_tgff_like(category_params(2, 8), catalog_4x4());
  switch (index) {
    case 0: return b2;
    case 1: return b4;
    case 2: return b5;
    default: return b8;
  }
}

/// One extra *unprofiled-timing-preserving* run after the timed loop: a
/// span-profiler spine (no event recording) is attached and every call
/// path's exclusive self time is exported as a "self_ms:<path>" counter.
/// tools/bench_compare.py stores these next to bench_ms and, when a
/// benchmark regresses, attributes the regression to the span whose self
/// time grew the most.  The timed loop itself stays uninstrumented.
void report_profile_counters(benchmark::State& state, const TaskGraph& g, EasOptions options) {
  obs::Profiler profiler;
  obs::TracerOptions spine_options;
  spine_options.record_events = false;
  spine_options.profiler = &profiler;
  obs::Tracer spine(spine_options);
  options.tracer = &spine;
  benchmark::DoNotOptimize(schedule_eas(g, platform_4x4(), options));
  for (const obs::ProfileRecord& r : profiler.snapshot().records) {
    if (r.self_ns <= 0) continue;
    state.counters["self_ms:" + r.path] = static_cast<double>(r.self_ns) / 1e6;
  }
}

void BM_EasBase_MissBenchmarks(benchmark::State& state) {
  const TaskGraph& g = miss_benchmark(static_cast<int>(state.range(0)));
  EasOptions options;
  options.repair = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_eas(g, platform_4x4(), options));
  }
  report_profile_counters(state, g, options);
}
BENCHMARK(BM_EasBase_MissBenchmarks)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_EasFull_MissBenchmarks(benchmark::State& state) {
  const TaskGraph& g = miss_benchmark(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_eas(g, platform_4x4()));
  }
  report_profile_counters(state, g, EasOptions{});
}
BENCHMARK(BM_EasFull_MissBenchmarks)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_Edf_MissBenchmarks(benchmark::State& state) {
  const TaskGraph& g = miss_benchmark(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_edf(g, platform_4x4()));
  }
}
BENCHMARK(BM_Edf_MissBenchmarks)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Attaches the probe-path instrumentation of the last run as counters.
/// The numbers are routed through the obs registry (export_probe_stats +
/// values()) — the same code path that produces the metrics JSON of the CLI
/// and the experiment benches — so every reporting surface agrees.
void report_probe_counters(benchmark::State& state, const ProbeStats& probe) {
  obs::Registry registry;
  export_probe_stats(probe, registry);
  for (const auto& [name, value] : registry.values()) {
    state.counters[name] = value;
  }
}

/// Same routing for the repair-phase instrumentation (repair.* counters).
void report_repair_counters(benchmark::State& state, const RepairStats& stats) {
  obs::Registry registry;
  export_repair_stats(stats, registry);
  for (const auto& [name, value] : registry.values()) {
    state.counters[name] = value;
  }
}

/// The canonical repair input: the attempt-0 level-based schedule of a miss
/// benchmark (deadlines missed, so search & repair has real work).
const Schedule& miss_base_schedule(int index) {
  static Schedule cache[4];
  static bool built[4] = {false, false, false, false};
  if (!built[index]) {
    EasOptions options;
    options.repair = false;
    cache[index] = schedule_eas(miss_benchmark(index), platform_4x4(), options).schedule;
    built[index] = true;
  }
  return cache[index];
}

/// Step 3 phase isolation: LTS moves only (order swaps, zero energy delta).
void BM_Repair_LtsOnly(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  const TaskGraph& g = miss_benchmark(index);
  const Schedule& base = miss_base_schedule(index);
  RepairOptions options;
  options.gtm = false;
  RepairStats last;
  for (auto _ : state) {
    RepairResult r = search_and_repair(g, platform_4x4(), base, options);
    last = r.stats;
    benchmark::DoNotOptimize(r);
  }
  report_repair_counters(state, last);
}
BENCHMARK(BM_Repair_LtsOnly)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Step 3 phase isolation: GTM moves only (migrations, energy-ordered).
void BM_Repair_GtmOnly(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  const TaskGraph& g = miss_benchmark(index);
  const Schedule& base = miss_base_schedule(index);
  RepairOptions options;
  options.lts = false;
  RepairStats last;
  for (auto _ : state) {
    RepairResult r = search_and_repair(g, platform_4x4(), base, options);
    last = r.stats;
    benchmark::DoNotOptimize(r);
  }
  report_repair_counters(state, last);
}
BENCHMARK(BM_Repair_GtmOnly)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// The repair inner loop's unit of work: one full timing reconstruction of
/// the incumbent plan (the cost every candidate paid before incremental
/// suffix evaluation).
void BM_Repair_RebuildOnly(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  const TaskGraph& g = miss_benchmark(index);
  const OrderedPlan plan = plan_from_schedule(miss_base_schedule(index), platform_4x4().num_pes());
  TimingRebuilder rb(g, platform_4x4());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rb.rebuild(plan));
  }
  state.counters["rebuild.commits"] =
      static_cast<double>(g.num_tasks()) * static_cast<double>(state.iterations());
}
BENCHMARK(BM_Repair_RebuildOnly)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Scaling with task count (fixed 4x4 platform, Category I style deadlines).
void BM_EasBase_TaskScaling(benchmark::State& state) {
  TgffParams params = category_params(1, 0);
  params.num_tasks = static_cast<std::size_t>(state.range(0));
  params.num_edges = 2 * params.num_tasks;
  const TaskGraph g = generate_tgff_like(params, catalog_4x4());
  EasOptions options;
  options.repair = false;
  ProbeStats probe;
  for (auto _ : state) {
    EasResult r = schedule_eas(g, platform_4x4(), options);
    probe = r.probe;
    benchmark::DoNotOptimize(r);
  }
  report_probe_counters(state, probe);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EasBase_TaskScaling)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

/// Same workload with the probe cache and parallel evaluation disabled: the
/// seed's probe-everything-every-iteration behaviour, kept as the reference
/// for the cache's speedup (schedules are bit-identical either way).
void BM_EasBase_TaskScaling_NoCache(benchmark::State& state) {
  TgffParams params = category_params(1, 0);
  params.num_tasks = static_cast<std::size_t>(state.range(0));
  params.num_edges = 2 * params.num_tasks;
  const TaskGraph g = generate_tgff_like(params, catalog_4x4());
  EasOptions options;
  options.repair = false;
  options.probe_cache = false;
  options.parallel_probes = false;
  ProbeStats probe;
  for (auto _ : state) {
    EasResult r = schedule_eas(g, platform_4x4(), options);
    probe = r.probe;
    benchmark::DoNotOptimize(r);
  }
  report_probe_counters(state, probe);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EasBase_TaskScaling_NoCache)
    ->RangeMultiplier(2)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

/// Decision stream of a fixed 512-task EAS run (Category I style deadlines,
/// 4x4 platform), serialized once: the workload of the two stream benches.
const std::string& decision_stream_512() {
  static const std::string text = [] {
    TgffParams params = category_params(1, 0);
    params.num_tasks = 512;
    params.num_edges = 2 * params.num_tasks;
    const TaskGraph g = generate_tgff_like(params, catalog_4x4());
    audit::DecisionLog log;
    EasOptions options;
    options.decisions = &log;
    benchmark::DoNotOptimize(schedule_eas(g, platform_4x4(), options));
    std::ostringstream os;
    log.write_jsonl(os);
    return std::move(os).str();
  }();
  return text;
}

/// Decision-stream serialization throughput ("mb_per_s" of JSONL written),
/// which tools/bench_compare.py records in bench_rates.
void BM_DecisionStream_Write(benchmark::State& state) {
  std::istringstream is(decision_stream_512());
  const audit::DecisionStream stream = audit::read_decision_stream(is);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    audit::write_decision_jsonl(os, stream);
    bytes += static_cast<std::size_t>(os.tellp());
    benchmark::DoNotOptimize(os);
  }
  state.counters["mb_per_s"] =
      benchmark::Counter(static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecisionStream_Write)->Unit(benchmark::kMillisecond);

/// Decision-stream parsing throughput ("mb_per_s" of JSONL read back).
void BM_DecisionStream_Read(benchmark::State& state) {
  const std::string& text = decision_stream_512();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::istringstream is(text);
    benchmark::DoNotOptimize(audit::read_decision_stream(is));
    bytes += text.size();
  }
  state.counters["mb_per_s"] =
      benchmark::Counter(static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecisionStream_Read)->Unit(benchmark::kMillisecond);

/// Custom campaign app for the merge bench (mirrors the campaign tests).
campaign::AppSpec merge_bench_app(const std::string& name, std::size_t tasks) {
  campaign::AppSpec app;
  app.kind = campaign::AppSpec::Kind::Custom;
  app.custom_name = name;
  app.custom.num_tasks = tasks;
  app.custom.num_edges = tasks * 2;
  app.custom.avg_layer_width = 4.0;
  return app;
}

/// A 3-shard fleet of the 20-unit mini-campaign, run once per process
/// (setup, outside any timed loop).
const std::vector<std::string>& merge_bench_shards() {
  static const std::vector<std::string> dirs = [] {
    namespace fs = std::filesystem;
    const fs::path root = fs::temp_directory_path() / "noceas_bench_merge";
    fs::remove_all(root);
    std::vector<std::string> out;
    for (unsigned i = 0; i < 3; ++i) {
      campaign::CampaignSpec spec;
      spec.apps = {merge_bench_app("bench-a", 18), merge_bench_app("bench-b", 24)};
      spec.seeds = {1, 2, 3, 4, 5};
      spec.schedulers = {"edf", "greedy"};
      std::string name = "s";
      name += std::to_string(i);
      spec.out_dir = (root / name).string();
      spec.shard_index = i;
      spec.shard_count = 3;
      (void)campaign::run_campaign(spec);
      out.push_back(spec.out_dir);
    }
    return out;
  }();
  return dirs;
}

/// Fleet-merge throughput: parse + validate + reassemble + rewrite of the
/// deterministic artifacts from 3 shard directories.  Exports merged
/// units/sec ("units_per_s"), which tools/bench_compare.py records in the
/// perf baseline and trajectory — fleet-path regressions are caught like
/// scheduler regressions.
void BM_CampaignMerge(benchmark::State& state) {
  namespace fs = std::filesystem;
  campaign::MergeOptions options;
  options.shard_dirs = merge_bench_shards();
  const fs::path out = fs::temp_directory_path() / "noceas_bench_merge" / "merged";
  options.out_dir = out.string();
  std::size_t units = 0;
  for (auto _ : state) {
    fs::remove_all(out);
    const campaign::MergeReport report = campaign::merge_shards(options);
    units += report.units;
    benchmark::DoNotOptimize(report);
  }
  state.counters["units_per_s"] =
      benchmark::Counter(static_cast<double>(units), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignMerge)->Unit(benchmark::kMillisecond);

bool same_schedule(const TaskGraph& g, const Schedule& a, const Schedule& b) {
  for (TaskId t : g.all_tasks()) {
    const TaskPlacement &ta = a.at(t), &tb = b.at(t);
    if (ta.pe != tb.pe || ta.start != tb.start || ta.finish != tb.finish) return false;
  }
  for (EdgeId e : g.all_edges()) {
    const CommPlacement &ca = a.at(e), &cb = b.at(e);
    if (ca.src_pe != cb.src_pe || ca.dst_pe != cb.dst_pe || ca.start != cb.start ||
        ca.duration != cb.duration)
      return false;
  }
  return true;
}

/// Smoke gate for the observability layer: a full EAS run (repair fires on
/// this workload) with a tracer + registry attached — and separately with a
/// span-profiler spine attached — must produce the bit-identical schedule,
/// and the min-of-N runtime must stay within 5% of an *identically probing*
/// reference (force_eager_probes, no sinks).  Any attached sink selects the
/// eager probe path, so pricing sinks against the default lazy path would
/// measure that algorithmic difference, not emission cost; the lazy-vs-eager
/// delta is reported separately as information.  A fourth leg prices the
/// live-telemetry sampler: an ambient 250 ms TelemetryHub (no scheduler
/// sinks, so the lazy path stays selected) must leave the schedule
/// bit-identical and cost < 2% against the plain lazy reference.  Exits 0
/// on pass, 1 with a diagnostic on fail.
int obs_smoke() {
  const TaskGraph& g = miss_benchmark(0);
  const Platform& p = platform_4x4();

  // One timed sample = several back-to-back runs, so a transient host-load
  // spike is amortized instead of dominating a ~35 ms single run.
  constexpr int kRunsPerSample = 3;
  auto sample_seconds = [&](const EasOptions& options, Schedule* out) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRunsPerSample; ++i) {
      EasResult r = schedule_eas(g, p, options);
      if (out != nullptr && i == 0) *out = std::move(r.schedule);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  EasOptions eager_options;
  eager_options.force_eager_probes = true;

  obs::Tracer tracer;
  obs::Registry registry;
  EasOptions traced_options;
  traced_options.tracer = &tracer;
  traced_options.metrics = &registry;

  obs::Profiler profiler;
  obs::TracerOptions spine_options;
  spine_options.record_events = false;
  spine_options.profiler = &profiler;
  obs::Tracer spine(spine_options);
  EasOptions profiled_options;
  profiled_options.tracer = &spine;

  // The default (lazy-probing) schedule is the identity reference for every
  // instrumented leg, and its runtime gives the informational lazy-vs-eager
  // delta.
  Schedule plain_schedule;
  const double lazy = sample_seconds(EasOptions{}, &plain_schedule);

  // Run reference/instrumented samples as adjacent pairs (alternating which
  // goes first) and judge the *smallest* per-pair ratio: the quietest pair
  // the machine gave us.  Ambient load can only inflate a ratio's halves,
  // so a genuine instrumentation cost shows up even in the cleanest pair,
  // while a noisy CI host does not produce spurious failures the way a
  // min-of-each-side or median estimator does.
  constexpr int kPairs = 7;
  Schedule eager_schedule, traced_schedule, profiled_schedule;
  double eager = 1e300, traced = 1e300, prof = 1e300;
  double traced_best_ratio = 1e300, prof_best_ratio = 1e300;
  for (int i = 0; i < kPairs; ++i) {
    double e_s, t_s, f_s;
    if (i % 2 == 0) {
      e_s = sample_seconds(eager_options, i == 0 ? &eager_schedule : nullptr);
      t_s = sample_seconds(traced_options, i == 0 ? &traced_schedule : nullptr);
      f_s = sample_seconds(profiled_options, i == 0 ? &profiled_schedule : nullptr);
    } else {
      f_s = sample_seconds(profiled_options, nullptr);
      t_s = sample_seconds(traced_options, nullptr);
      e_s = sample_seconds(eager_options, nullptr);
    }
    eager = std::min(eager, e_s);
    traced = std::min(traced, t_s);
    prof = std::min(prof, f_s);
    traced_best_ratio = std::min(traced_best_ratio, t_s / e_s);
    prof_best_ratio = std::min(prof_best_ratio, f_s / e_s);
  }

  // Telemetry leg: an *ambient* sampler hub (250 ms period, in-memory
  // stream, its own registry) with no scheduler sinks attached — the lazy
  // probe path stays selected, so the reference is the plain lazy run.
  // Same adjacent-pair best-ratio estimator; the budget is tighter (2%)
  // because a sampler that wakes 4×/s has no business costing anything.
  std::ostringstream telemetry_sink;
  obs::Registry ambient_registry;
  Schedule telemetry_schedule;
  double tele = 1e300, tele_lazy = 1e300, tele_best_ratio = 1e300;
  for (int i = 0; i < kPairs; ++i) {
    double l_s = 0.0, m_s = 0.0;
    const auto telemetry_sample = [&] {
      obs::TelemetryOptions topt;
      topt.interval_ms = 250;
      topt.timeseries = &telemetry_sink;
      topt.registry = &ambient_registry;
      obs::TelemetryHub hub(topt);  // hub lifecycle billed to this leg
      m_s = sample_seconds(EasOptions{}, i == 0 ? &telemetry_schedule : nullptr);
      hub.stop();
    };
    if (i % 2 == 0) {
      l_s = sample_seconds(EasOptions{}, nullptr);
      telemetry_sample();
    } else {
      telemetry_sample();
      l_s = sample_seconds(EasOptions{}, nullptr);
    }
    tele_lazy = std::min(tele_lazy, l_s);
    tele = std::min(tele, m_s);
    tele_best_ratio = std::min(tele_best_ratio, m_s / l_s);
  }

  if (!same_schedule(g, plain_schedule, eager_schedule)) {
    NOCEAS_ERROR("obs-smoke FAIL: eager probing changed the schedule");
    return 1;
  }
  if (!same_schedule(g, plain_schedule, traced_schedule)) {
    NOCEAS_ERROR("obs-smoke FAIL: tracing changed the schedule");
    return 1;
  }
  if (!same_schedule(g, plain_schedule, profiled_schedule)) {
    NOCEAS_ERROR("obs-smoke FAIL: profiling changed the schedule");
    return 1;
  }
  if (!same_schedule(g, plain_schedule, telemetry_schedule)) {
    NOCEAS_ERROR("obs-smoke FAIL: ambient telemetry changed the schedule");
    return 1;
  }
  if (telemetry_sink.str().find("noceas.timeseries.v1") == std::string::npos) {
    NOCEAS_ERROR("obs-smoke FAIL: telemetry hub produced no timeseries stream");
    return 1;
  }
  if (tracer.size() == 0 || registry.values().empty()) {
    NOCEAS_ERROR("obs-smoke FAIL: sinks attached but nothing recorded");
    return 1;
  }

  const obs::ProfileSnapshot snap = profiler.snapshot(spine.now_ns());
  if (snap.records.empty()) {
    NOCEAS_ERROR("obs-smoke FAIL: profiler attached but no records");
    return 1;
  }
  // The self-time identity (docs/OBSERVABILITY.md): exclusive self times of
  // all call paths sum exactly to the root spans' total, which fits inside
  // the spine tracer's wall clock.
  if (snap.sum_self_ns() != snap.root_total_ns() || snap.root_total_ns() > snap.wall_ns) {
    NOCEAS_ERROR("obs-smoke FAIL: profile identity broken (self "
                 << snap.sum_self_ns() << ", root " << snap.root_total_ns() << ", wall "
                 << snap.wall_ns << ')');
    return 1;
  }

  std::printf("obs-smoke: schedules bit-identical (lazy / eager / traced / profiled); "
              "lazy-vs-eager delta %.2f%% (informational; lazy %.3f ms, eager %.3f ms)\n",
              100.0 * (eager / (lazy > 0 ? lazy : eager) - 1.0), 1e3 * lazy, 1e3 * eager);
  const double traced_overhead = traced_best_ratio - 1.0;
  std::printf("obs-smoke: tracer+metrics: %zu events; overhead %.2f%% "
              "(best of %d pairs; best eager sample %.3f ms, traced %.3f ms)\n",
              tracer.size(), 100.0 * traced_overhead, kPairs, 1e3 * eager, 1e3 * traced);
  const double prof_overhead = prof_best_ratio - 1.0;
  std::printf("obs-smoke: profiler: %zu call paths; overhead %.2f%% "
              "(best of %d pairs; best eager sample %.3f ms, profiled %.3f ms)\n",
              snap.records.size(), 100.0 * prof_overhead, kPairs, 1e3 * eager, 1e3 * prof);
  const double tele_overhead = tele_best_ratio - 1.0;
  std::printf("obs-smoke: telemetry: 250 ms sampler; overhead %.2f%% "
              "(best of %d pairs; best lazy sample %.3f ms, sampled %.3f ms)\n",
              100.0 * tele_overhead, kPairs, 1e3 * tele_lazy, 1e3 * tele);
  char fail[160];
  if (traced_overhead > 0.05) {
    std::snprintf(fail, sizeof(fail), "obs-smoke FAIL: tracer overhead %.2f%% exceeds the 5%% budget",
                  100.0 * traced_overhead);
    NOCEAS_ERROR(fail);
    return 1;
  }
  if (prof_overhead > 0.05) {
    std::snprintf(fail, sizeof(fail),
                  "obs-smoke FAIL: profiler overhead %.2f%% exceeds the 5%% budget",
                  100.0 * prof_overhead);
    NOCEAS_ERROR(fail);
    return 1;
  }
  if (tele_overhead > 0.02) {
    std::snprintf(fail, sizeof(fail),
                  "obs-smoke FAIL: telemetry overhead %.2f%% exceeds the 2%% budget",
                  100.0 * tele_overhead);
    NOCEAS_ERROR(fail);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--obs-smoke") return obs_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
