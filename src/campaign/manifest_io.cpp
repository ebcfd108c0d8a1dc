#include "src/campaign/manifest_io.hpp"

#include <istream>
#include <iterator>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::campaign {

namespace {

using Json = json::View;

std::string slurp(std::istream& is) {
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

ReasonMix parse_reasons(Json j) {
  ReasonMix mix;
  mix.head = j.at("head").i64();
  mix.dep = j.at("dep").i64();
  mix.pe_busy = j.at("pe_busy").i64();
  mix.link_busy = j.at("link_busy").i64();
  return mix;
}

Dist parse_dist(Json j) {
  Dist d;
  d.count = j.at("count").u64();
  d.mean = j.at("mean").num();
  d.min = j.at("min").num();
  d.p10 = j.at("p10").num();
  d.p50 = j.at("p50").num();
  d.p90 = j.at("p90").num();
  d.max = j.at("max").num();
  return d;
}

std::vector<std::vector<WinCell>> parse_win_rows(Json j) {
  std::vector<std::vector<WinCell>> rows;
  for (const Json row : j) {
    std::vector<WinCell> cells;
    for (const Json c : row) {
      WinCell cell;
      cell.wins = c.at("wins").u64();
      cell.losses = c.at("losses").u64();
      cell.ties = c.at("ties").u64();
      cells.push_back(cell);
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

}  // namespace

namespace detail {

RunOutcome parse_outcome_json(json::View j) {
  RunOutcome r;
  r.id = j.at("id").str();
  r.app = j.at("app").str();
  r.seed = j.at("seed").u64();
  r.scheduler = j.at("scheduler").str();
  r.ok = j.at("ok").boolean();
  if (!r.ok) {
    r.error = j.at("error").str();
    return r;
  }
  r.num_tasks = j.at("num_tasks").u64();
  r.num_edges = j.at("num_edges").u64();
  r.energy_total = j.at("energy").num();
  r.energy_comp = j.at("energy_comp").num();
  r.energy_comm = j.at("energy_comm").num();
  r.makespan = j.at("makespan").i64();
  r.miss_count = j.at("miss_count").u64();
  r.tardiness = j.at("tardiness").i64();
  r.avg_hops = j.at("avg_hops").num();
  r.deadlines_met = j.at("deadlines_met").boolean();
  r.reasons = parse_reasons(j.at("reasons"));
  r.probes_issued = j.at("probes_issued").u64();
  r.probe_cache_hits = j.at("probe_cache_hits").u64();
  r.probe_hit_rate = j.at("probe_hit_rate").num();
  return r;
}

ArtifactPaths parse_artifact_paths(json::View j) {
  ArtifactPaths paths;
  if (j.has("artifacts")) {
    const Json a = j.at("artifacts");
    paths.metrics = a.at("metrics").str();
    paths.analysis = a.at("analysis").str();
    paths.decisions = a.at("decisions").str();
  }
  return paths;
}

}  // namespace detail

Manifest read_manifest_json(std::istream& is) {
  const json::Document parsed = json::parse(slurp(is), "manifest");
  const Json doc = parsed.root();
  NOCEAS_REQUIRE(doc.at("schema").str() == "noceas.campaign.v1",
                 "unknown manifest schema '" << doc.at("schema").str() << '\'');
  Manifest m;
  const Json spec = doc.at("spec");
  for (const Json app : spec.at("apps")) m.apps.emplace_back(app.at("name").str());
  for (const Json seed : spec.at("seeds")) m.seeds.push_back(seed.u64());
  for (const Json s : spec.at("schedulers")) m.schedulers.emplace_back(s.str());
  m.artifacts = spec.at("artifacts").boolean();
  for (const Json run : doc.at("runs")) {
    m.runs.push_back(detail::parse_outcome_json(run));
    m.paths.push_back(detail::parse_artifact_paths(run));
  }
  return m;
}

Aggregate read_aggregate_json(std::istream& is) {
  const json::Document parsed = json::parse(slurp(is), "aggregate");
  const Json doc = parsed.root();
  NOCEAS_REQUIRE(doc.at("schema").str() == "noceas.campaign.aggregate.v1",
                 "unknown aggregate schema '" << doc.at("schema").str() << '\'');
  Aggregate agg;
  agg.total_runs = doc.at("total_runs").u64();
  agg.failed_runs = doc.at("failed_runs").u64();
  for (const Json s : doc.at("schedulers")) {
    SchedulerAggregate sched;
    sched.scheduler = s.at("scheduler").str();
    sched.runs = s.at("runs").u64();
    sched.failed = s.at("failed").u64();
    sched.energy = parse_dist(s.at("energy"));
    sched.makespan = parse_dist(s.at("makespan"));
    sched.runs_with_misses = s.at("runs_with_misses").u64();
    sched.miss_rate = s.at("miss_rate").num();
    sched.total_misses = s.at("total_misses").u64();
    sched.total_tardiness = s.at("total_tardiness").i64();
    sched.mean_hops = s.at("mean_hops").num();
    sched.reasons = parse_reasons(s.at("reasons"));
    for (const Json o : s.at("outliers")) {
      OutlierRun out;
      out.run_id = o.at("run").str();
      out.unit_index = o.at("unit").u64();
      out.deviation = o.at("deviation").num();
      out.makespan = o.at("makespan").i64();
      out.energy = o.at("energy").num();
      out.reasons = parse_reasons(o.at("reasons"));
      sched.outliers.push_back(std::move(out));
    }
    agg.schedulers.push_back(std::move(sched));
  }
  const Json wins = doc.at("win_matrix");
  for (const Json s : wins.at("schedulers")) agg.wins.schedulers.emplace_back(s.str());
  agg.wins.energy = parse_win_rows(wins.at("energy"));
  agg.wins.makespan = parse_win_rows(wins.at("makespan"));
  return agg;
}

}  // namespace noceas::campaign
