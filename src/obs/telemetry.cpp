#include "src/obs/telemetry.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/resources.hpp"
#include "src/obs/trace.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/log.hpp"

namespace noceas::obs {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shortest round-trip decimal form; NaN/inf degrade to null (not JSON).
std::string fmt(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

/// Series values are doubles on the wire, in shortest form (100000 is
/// written 1e+05), so counts read back through num() and a checked cast.
template <typename T>
T series_count(json::View v) {
  const double x = v.num();
  NOCEAS_REQUIRE(x >= -0x1p63 && x < 0x1p63, "timeseries sample: count out of range");
  const auto n = static_cast<std::int64_t>(x);
  NOCEAS_REQUIRE(std::in_range<T>(n), "timeseries sample: count out of range");
  return static_cast<T>(n);
}

void write_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
  os << '"';
}

}  // namespace

TelemetryHub::TelemetryHub(TelemetryOptions options)
    : options_(std::move(options)), t0_ns_(wall_now_ns()) {
  if (options_.progress != nullptr) {
    *options_.progress << "{\"schema\":\"noceas.progress.v1\",\"total\":" << options_.total_units
                       << ",\"lanes\":" << options_.lanes << "}\n";
    options_.progress->flush();
  }
  if (options_.timeseries != nullptr) {
    *options_.timeseries << "{\"schema\":\"noceas.timeseries.v1\",\"interval_ms\":"
                         << options_.interval_ms << "}\n";
    options_.timeseries->flush();
  }
  if (options_.interval_ms > 0) {
    sampler_ = std::thread([this] {
      std::unique_lock<std::mutex> lk(m_);
      while (!quit_) {
        cv_.wait_for(lk, std::chrono::milliseconds(options_.interval_ms),
                     [this] { return quit_; });
        if (quit_) break;
        sample_locked();
        watchdog_locked();
      }
    });
  }
}

TelemetryHub::~TelemetryHub() { stop(); }

double TelemetryHub::now_ms_locked() const {
  return static_cast<double>(wall_now_ns() - t0_ns_) * 1e-6;
}

double TelemetryHub::median_wall_ms_locked() const {
  if (finished_wall_ms_.empty()) return 0.0;
  return finished_wall_ms_[finished_wall_ms_.size() / 2];
}

double TelemetryHub::eta_ms_locked() const {
  if (!ewma_seeded_ || options_.total_units <= done_) return 0.0;
  const double remaining = static_cast<double>(options_.total_units - done_);
  const double lanes = options_.lanes > 0 ? static_cast<double>(options_.lanes) : 1.0;
  return ewma_wall_ms_ * remaining / lanes;
}

void TelemetryHub::unit_start(std::size_t slot, const std::string& id,
                              const std::string& scheduler, const Tracer* spans) {
  std::lock_guard<std::mutex> lk(m_);
  InFlight f;
  f.id = id;
  f.scheduler = scheduler;
  f.spans = spans;
  f.start_ns = wall_now_ns();
  inflight_[slot] = std::move(f);
  if (options_.progress != nullptr) {
    std::ostream& os = *options_.progress;
    os << "{\"ev\":\"start\",\"unit\":";
    write_string(os, id);
    os << ",\"scheduler\":";
    write_string(os, scheduler);
    os << ",\"t_ms\":" << fmt(now_ms_locked()) << ",\"inflight\":" << inflight_.size() << "}\n";
    os.flush();
  }
  ticker_locked(id);
}

void TelemetryHub::unit_finish(std::size_t slot, bool ok, const std::string& error) {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = inflight_.find(slot);
  if (it == inflight_.end()) return;
  const InFlight f = std::move(it->second);
  inflight_.erase(it);

  const double wall_ms = static_cast<double>(wall_now_ns() - f.start_ns) * 1e-6;
  finished_wall_ms_.insert(
      std::upper_bound(finished_wall_ms_.begin(), finished_wall_ms_.end(), wall_ms), wall_ms);
  if (!ewma_seeded_) {
    ewma_wall_ms_ = wall_ms;
    ewma_seeded_ = true;
  } else {
    ewma_wall_ms_ = options_.ewma_alpha * wall_ms + (1.0 - options_.ewma_alpha) * ewma_wall_ms_;
  }
  ++done_;
  if (ok) {
    ++ok_;
  } else {
    ++errors_;
  }

  if (options_.progress != nullptr) {
    std::ostream& os = *options_.progress;
    os << "{\"ev\":\"" << (ok ? "finish" : "error") << "\",\"unit\":";
    write_string(os, f.id);
    os << ",\"scheduler\":";
    write_string(os, f.scheduler);
    os << ",\"t_ms\":" << fmt(now_ms_locked()) << ",\"wall_ms\":" << fmt(wall_ms)
       << ",\"ok\":" << (ok ? "true" : "false");
    if (!ok) {
      os << ",\"error\":";
      write_string(os, error);
    }
    os << ",\"done\":" << done_ << ",\"total\":" << options_.total_units
       << ",\"eta_ms\":" << (ewma_seeded_ ? fmt(eta_ms_locked()) : std::string("null")) << "}\n";
    os.flush();
  }
  ticker_locked(f.id);
}

void TelemetryHub::tick() {
  std::lock_guard<std::mutex> lk(m_);
  sample_locked();
  watchdog_locked();
}

void TelemetryHub::sample_locked() {
  const double t_ms = now_ms_locked();
  std::size_t stalled = 0;
  for (const auto& [slot, f] : inflight_) {
    if (f.stalled) ++stalled;
  }

  std::map<std::string, double> series;
  if (options_.registry != nullptr) series = options_.registry->values();
  series["proc.wall_ms"] = t_ms;
  series["proc.cpu_s"] = ResourceSampler::process_cpu_seconds();
  series["proc.rss_kb"] = static_cast<double>(ResourceSampler::current_rss_kb());
  series["proc.peak_rss_kb"] = static_cast<double>(ResourceSampler::current_peak_rss_kb());
  series["units.inflight"] = static_cast<double>(inflight_.size());
  series["units.done"] = static_cast<double>(done_);
  series["units.stalled"] = static_cast<double>(stalled);

  if (options_.timeseries != nullptr) {
    std::ostream& os = *options_.timeseries;
    os << "{\"t_ms\":" << fmt(t_ms) << ",\"series\":{";
    bool first = true;
    for (const auto& [name, value] : series) {
      if (!first) os << ',';
      first = false;
      write_string(os, name);
      os << ':' << fmt(value);
    }
    os << "}}\n";
    os.flush();
  }

  TimelinePoint p;
  p.t_ms = t_ms;
  p.inflight = static_cast<int>(inflight_.size());
  p.done = done_;
  p.rss_kb = static_cast<std::int64_t>(series["proc.rss_kb"]);
  timeline_.push_back(p);
}

void TelemetryHub::watchdog_locked() {
  // Arm only once two units have finished: before a wall-time population
  // exists, any floor would be a guess and a slow-but-healthy first unit
  // (cold caches, sanitizer warm-up) would false-trip.
  if (finished_wall_ms_.size() < 2) return;
  const double deadline_ms =
      std::max(options_.stall_floor_ms, options_.stall_multiplier * median_wall_ms_locked());
  const std::int64_t now = wall_now_ns();
  for (auto& [slot, f] : inflight_) {
    if (f.stalled) continue;  // one stall event per unit
    const double open_ms = static_cast<double>(now - f.start_ns) * 1e-6;
    if (open_ms <= deadline_ms) continue;
    f.stalled = true;

    StallEvent ev;
    ev.unit = f.id;
    ev.open_ms = open_ms;
    ev.deadline_ms = deadline_ms;
    if (f.spans != nullptr) ev.spans = f.spans->open_span_paths();

    if (options_.progress != nullptr) {
      std::ostream& os = *options_.progress;
      os << "{\"ev\":\"stall\",\"unit\":";
      write_string(os, ev.unit);
      os << ",\"t_ms\":" << fmt(now_ms_locked()) << ",\"open_ms\":" << fmt(ev.open_ms)
         << ",\"deadline_ms\":" << fmt(ev.deadline_ms) << ",\"spans\":[";
      for (std::size_t i = 0; i < ev.spans.size(); ++i) {
        if (i > 0) os << ',';
        write_string(os, ev.spans[i]);
      }
      os << "]}\n";
      os.flush();
    }
    std::ostringstream span_list;
    for (std::size_t i = 0; i < ev.spans.size(); ++i) {
      if (i > 0) span_list << " | ";
      span_list << ev.spans[i];
    }
    NOCEAS_WARN("stall: unit '" << ev.unit << "' open " << static_cast<std::int64_t>(ev.open_ms)
                                << " ms (deadline " << static_cast<std::int64_t>(ev.deadline_ms)
                                << " ms); open spans: "
                                << (span_list.str().empty() ? "<none>" : span_list.str()));
    stalls_.push_back(std::move(ev));
  }
}

void TelemetryHub::ticker_locked(const std::string& last_unit) {
  if (options_.ticker == nullptr) return;
  std::ostringstream line;
  line << '[' << done_ << '/' << options_.total_units << "] inflight=" << inflight_.size();
  if (ewma_seeded_) {
    line << " eta=" << fmt(eta_ms_locked() / 1000.0) << 's';
  }
  if (!last_unit.empty()) line << ' ' << last_unit;
  std::string text = line.str();
  const std::size_t width = text.size();
  if (width < ticker_width_) text.append(ticker_width_ - width, ' ');
  ticker_width_ = std::max(ticker_width_, width);
  *options_.ticker << '\r' << text;
  options_.ticker->flush();
}

void TelemetryHub::stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopped_) return;
    stopped_ = true;
    quit_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  std::lock_guard<std::mutex> lk(m_);
  // A final sample guarantees even a sub-interval run yields one
  // observation per stream.
  sample_locked();
  if (options_.ticker != nullptr && ticker_width_ > 0) {
    *options_.ticker << '\n';
    options_.ticker->flush();
  }
}

std::vector<StallEvent> TelemetryHub::stalls() const {
  std::lock_guard<std::mutex> lk(m_);
  return stalls_;
}

std::vector<TimelinePoint> TelemetryHub::timeline() const {
  std::lock_guard<std::mutex> lk(m_);
  return timeline_;
}

// ---------------------------------------------------------------------------
// Stream summarization.

StreamSummary summarize_stream(std::istream& in) {
  StreamSummary out;
  std::string line;
  // Header line: the first non-empty line must carry the schema.
  while (std::getline(in, line) && line.empty()) {
  }
  NOCEAS_REQUIRE(!line.empty(), "stream summarize: empty stream (no schema header)");
  json::Document header_doc;
  header_doc.parse(line, "stream header");
  const json::View header = header_doc.root();
  json::Document doc;  // reused for every following line
  NOCEAS_REQUIRE(header.has("schema"), "stream summarize: header line has no schema");
  out.source_schema = header.at("schema").str();

  if (out.source_schema == "noceas.timeseries.v1") {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      doc.parse(line, "timeseries sample");
      const json::View v = doc.root();
      if (v.has("schema")) {
        // Segment boundary of a concatenated fleet stream: not a sample.
        NOCEAS_REQUIRE(v.at("schema").str() == out.source_schema,
                       "stream summarize: concatenated stream mixes schemas ('"
                           << out.source_schema << "' then '" << v.at("schema").str() << "')");
        continue;
      }
      ++out.samples;
      if (!v.has("series")) continue;
      for (const json::View val : v.at("series")) {
        const double x = val.num();  // null reads back as NaN
        SeriesStat& s = out.series[std::string(val.key())];
        if (std::isfinite(x)) {
          if (s.count == 0) {
            s.min = s.max = x;
          } else {
            s.min = std::min(s.min, x);
            s.max = std::max(s.max, x);
          }
          s.last = x;
          ++s.count;
        }
      }
    }
    return out;
  }

  if (out.source_schema == "noceas.progress.v1") {
    out.total = header.has("total") ? header.at("total").u64() : 0;
    std::uint64_t prev_done = 0;
    std::uint64_t finish_count = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      doc.parse(line, "progress event");
      const json::View v = doc.root();
      if (v.has("schema")) {
        // Segment boundary: totals add across shards, while the running
        // `done` counter and the ETA arming restart with the new segment.
        NOCEAS_REQUIRE(v.at("schema").str() == out.source_schema,
                       "stream summarize: concatenated stream mixes schemas ('"
                           << out.source_schema << "' then '" << v.at("schema").str() << "')");
        out.total += v.has("total") ? v.at("total").u64() : 0;
        prev_done = 0;
        finish_count = 0;
        continue;
      }
      const std::string_view ev = v.has("ev") ? v.at("ev").str() : std::string_view();
      if (ev == "start") {
        ++out.starts;
        ++out.units[std::string(v.at("unit").str())].starts;
      } else if (ev == "finish" || ev == "error") {
        ++out.finishes;
        ++finish_count;
        UnitStat& u = out.units[std::string(v.at("unit").str())];
        ++u.finishes;
        const bool unit_ok = v.has("ok") && v.at("ok").boolean();
        if (unit_ok) {
          ++out.ok;
          ++u.ok;
        } else {
          ++out.errors;
        }
        if (v.has("done")) {
          const std::uint64_t done = v.at("done").u64();
          if (done < prev_done) out.done_monotone = false;
          prev_done = done;
        }
        if (finish_count >= 2 && v.has("eta_ms") && !std::isfinite(v.at("eta_ms").num())) {
          out.eta_finite_after_second_finish = false;
        }
      } else if (ev == "stall") {
        ++out.stall_events;
      }
    }
    return out;
  }

  NOCEAS_REQUIRE(false, "stream summarize: unknown schema '" << out.source_schema << '\'');
  return out;  // unreachable
}

void write_summary_json(std::ostream& os, const StreamSummary& summary) {
  os << "{\"schema\":\"noceas.stream.summary.v1\",\"source_schema\":";
  write_string(os, summary.source_schema);
  if (summary.source_schema == "noceas.timeseries.v1") {
    os << ",\"samples\":" << summary.samples << ",\"series\":{";
    bool first = true;
    for (const auto& [name, s] : summary.series) {
      if (!first) os << ',';
      first = false;
      write_string(os, name);
      os << ":{\"count\":" << s.count << ",\"min\":" << fmt(s.min) << ",\"max\":" << fmt(s.max)
         << ",\"last\":" << fmt(s.last) << '}';
    }
    os << '}';
  } else {
    os << ",\"total\":" << summary.total << ",\"starts\":" << summary.starts
       << ",\"finishes\":" << summary.finishes << ",\"ok\":" << summary.ok
       << ",\"errors\":" << summary.errors << ",\"stalls\":" << summary.stall_events
       << ",\"done_monotone\":" << (summary.done_monotone ? "true" : "false")
       << ",\"eta_finite_after_second_finish\":"
       << (summary.eta_finite_after_second_finish ? "true" : "false") << ",\"units\":{";
    bool first = true;
    for (const auto& [id, u] : summary.units) {
      if (!first) os << ',';
      first = false;
      write_string(os, id);
      os << ":{\"starts\":" << u.starts << ",\"finishes\":" << u.finishes << ",\"ok\":" << u.ok
         << '}';
    }
    os << '}';
  }
  os << "}\n";
}

void print_summary(std::ostream& os, const StreamSummary& summary) {
  if (summary.source_schema == "noceas.timeseries.v1") {
    os << "timeseries: " << summary.samples << " samples, " << summary.series.size()
       << " series\n";
    for (const auto& [name, s] : summary.series) {
      os << "  " << name << ": count=" << s.count << " min=" << fmt(s.min) << " max=" << fmt(s.max)
         << " last=" << fmt(s.last) << '\n';
    }
  } else {
    os << "progress: " << summary.finishes << '/' << summary.total << " finished ("
       << summary.ok << " ok, " << summary.errors << " errors, " << summary.stall_events
       << " stalls)\n";
    os << "  starts=" << summary.starts << " done_monotone="
       << (summary.done_monotone ? "yes" : "NO") << " eta_finite_after_second_finish="
       << (summary.eta_finite_after_second_finish ? "yes" : "NO") << '\n';
    for (const auto& [id, u] : summary.units) {
      os << "  " << id << ": starts=" << u.starts << " finishes=" << u.finishes
         << " ok=" << u.ok << '\n';
    }
  }
}

void write_timeline_html(std::ostream& os, const std::vector<TimelinePoint>& points,
                         std::size_t total_units) {
  constexpr int kW = 900;
  constexpr int kStripH = 120;
  constexpr int kPad = 40;

  double t_max = 1.0;
  int inflight_max = 1;
  std::int64_t rss_max = 1;
  for (const TimelinePoint& p : points) {
    t_max = std::max(t_max, p.t_ms);
    inflight_max = std::max(inflight_max, p.inflight);
    rss_max = std::max(rss_max, p.rss_kb);
  }

  const auto x_of = [&](double t_ms) {
    return kPad + (t_ms / t_max) * (kW - 2 * kPad);
  };
  const auto strip = [&](const char* title, const char* color, int y0, auto value_of,
                         double value_max, const std::string& max_label) {
    os << "<g transform=\"translate(0," << y0 << ")\">\n";
    os << "<text x=\"" << kPad << "\" y=\"14\" class=\"t\">" << title << "</text>\n";
    os << "<line x1=\"" << kPad << "\" y1=\"" << kStripH << "\" x2=\"" << (kW - kPad)
       << "\" y2=\"" << kStripH << "\" class=\"ax\"/>\n";
    if (!points.empty()) {
      os << "<polyline fill=\"none\" stroke=\"" << color << "\" stroke-width=\"1.5\" points=\"";
      for (const TimelinePoint& p : points) {
        const double frac = value_max > 0.0 ? value_of(p) / value_max : 0.0;
        os << fmt(x_of(p.t_ms)) << ',' << fmt(kStripH - frac * (kStripH - 22)) << ' ';
      }
      os << "\"/>\n";
    }
    os << "<text x=\"" << (kW - kPad) << "\" y=\"14\" text-anchor=\"end\" class=\"t\">max "
       << max_label << "</text>\n</g>\n";
  };

  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>noceas fleet timeline"
        "</title>\n<style>body{font-family:system-ui,sans-serif;margin:24px;background:#fafafa}"
        "svg{background:#fff;border:1px solid #ddd}.t{font-size:12px;fill:#444}"
        ".ax{stroke:#ccc}</style></head><body>\n";
  os << "<h1>Fleet timeline</h1>\n<p>" << points.size() << " samples over "
     << fmt(t_max / 1000.0) << " s; " << total_units
     << " units. Wall-clock data &mdash; outside the deterministic contract.</p>\n";
  os << "<svg width=\"" << kW << "\" height=\"" << (2 * (kStripH + kPad)) << "\">\n";
  strip("units in flight", "#2266cc", 8,
        [](const TimelinePoint& p) { return static_cast<double>(p.inflight); },
        static_cast<double>(inflight_max), std::to_string(inflight_max));
  strip("RSS (KiB)", "#cc4422", kStripH + kPad + 8,
        [](const TimelinePoint& p) { return static_cast<double>(p.rss_kb); },
        static_cast<double>(rss_max), std::to_string(rss_max));
  os << "</svg>\n</body></html>\n";
}

// ---------------------------------------------------------------------------
// Fleet observability.

std::vector<TimelinePoint> read_timeline_points(std::istream& in) {
  std::vector<TimelinePoint> points;
  std::string line;
  json::Document doc;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      doc.parse(line, "timeseries sample");
      const json::View v = doc.root();
      if (!v.has("t_ms") || !v.has("series")) continue;  // header or foreign line
      const json::View series = v.at("series");
      TimelinePoint p;
      p.t_ms = v.at("t_ms").num();
      if (series.has("units.inflight")) {
        p.inflight = series_count<int>(series.at("units.inflight"));
      }
      if (series.has("units.done")) p.done = series_count<std::size_t>(series.at("units.done"));
      if (series.has("proc.rss_kb")) {
        p.rss_kb = series_count<std::int64_t>(series.at("proc.rss_kb"));
      }
      points.push_back(p);
    } catch (const Error&) {
      continue;  // torn line of a killed shard: keep the healthy prefix
    }
  }
  return points;
}

std::vector<FleetStall> read_progress_stalls(std::istream& in) {
  std::vector<FleetStall> stalls;
  std::string line;
  json::Document doc;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      doc.parse(line, "progress event");
      const json::View v = doc.root();
      if (!v.has("ev") || v.at("ev").str() != "stall") continue;
      FleetStall s;
      s.unit = v.at("unit").str();
      if (v.has("t_ms")) s.t_ms = v.at("t_ms").num();
      stalls.push_back(std::move(s));
    } catch (const Error&) {
      continue;
    }
  }
  return stalls;
}

std::vector<std::size_t> fleet_stragglers(const std::vector<FleetLane>& lanes) {
  std::vector<double> durations;
  for (const FleetLane& lane : lanes) {
    if (!lane.points.empty()) durations.push_back(lane.points.back().t_ms);
  }
  std::vector<std::size_t> out;
  if (durations.size() < 2) return out;  // a straggler needs peers to lag behind
  std::sort(durations.begin(), durations.end());
  const double median = durations[(durations.size() - 1) / 2];
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i].points.empty()) continue;
    const double d = lanes[i].points.back().t_ms;
    if (d > 1.5 * median && d > median + 100.0) out.push_back(i);
  }
  return out;
}

namespace {

/// Minimal HTML text escape for unit ids and labels inside the SVG.
void write_html_text(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '<') {
      os << "&lt;";
    } else if (c == '&') {
      os << "&amp;";
    } else {
      os << c;
    }
  }
}

}  // namespace

void write_fleet_timeline_html(std::ostream& os, const std::vector<FleetLane>& lanes) {
  constexpr int kW = 900;
  constexpr int kLaneH = 70;
  constexpr int kPad = 40;

  double t_max = 1.0;
  int inflight_max = 1;
  std::size_t stall_total = 0;
  for (const FleetLane& lane : lanes) {
    for (const TimelinePoint& p : lane.points) {
      t_max = std::max(t_max, p.t_ms);
      inflight_max = std::max(inflight_max, p.inflight);
    }
    for (const FleetStall& s : lane.stalls) t_max = std::max(t_max, s.t_ms);
    stall_total += lane.stalls.size();
  }
  const std::vector<std::size_t> stragglers = fleet_stragglers(lanes);
  const auto is_straggler = [&](std::size_t i) {
    return std::find(stragglers.begin(), stragglers.end(), i) != stragglers.end();
  };
  const auto x_of = [&](double t_ms) { return kPad + (t_ms / t_max) * (kW - 2 * kPad); };

  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>noceas fleet dashboard"
        "</title>\n<style>body{font-family:system-ui,sans-serif;margin:24px;background:#fafafa}"
        "svg{background:#fff;border:1px solid #ddd}.t{font-size:12px;fill:#444}"
        ".s{font-size:10px;fill:#a00}.ax{stroke:#ccc}.lag{fill:#fff3e6}</style></head><body>\n";
  os << "<h1>Fleet timeline</h1>\n<p>" << lanes.size() << " shard lanes over "
     << fmt(t_max / 1000.0) << " s; " << stall_total << " stall event"
     << (stall_total == 1 ? "" : "s");
  if (!stragglers.empty()) {
    os << "; stragglers:";
    for (const std::size_t i : stragglers) {
      os << ' ';
      write_html_text(os, lanes[i].label);
    }
  }
  os << ". Wall-clock data &mdash; outside the deterministic contract.</p>\n";
  os << "<svg width=\"" << kW << "\" height=\""
     << (static_cast<int>(lanes.size()) * kLaneH + kPad) << "\">\n";
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    const FleetLane& lane = lanes[li];
    os << "<g transform=\"translate(0," << (static_cast<int>(li) * kLaneH + 8) << ")\">\n";
    if (is_straggler(li)) {
      os << "<rect x=\"" << kPad << "\" y=\"0\" width=\"" << (kW - 2 * kPad) << "\" height=\""
         << (kLaneH - 12) << "\" class=\"lag\"/>\n";
    }
    os << "<text x=\"" << kPad << "\" y=\"12\" class=\"t\">";
    write_html_text(os, lane.label);
    os << " (" << lane.units << " units" << (is_straggler(li) ? ", straggler" : "")
       << ")</text>\n";
    os << "<line x1=\"" << kPad << "\" y1=\"" << (kLaneH - 12) << "\" x2=\"" << (kW - kPad)
       << "\" y2=\"" << (kLaneH - 12) << "\" class=\"ax\"/>\n";
    if (!lane.points.empty()) {
      os << "<polyline fill=\"none\" stroke=\"#2266cc\" stroke-width=\"1.5\" points=\"";
      for (const TimelinePoint& p : lane.points) {
        const double frac = static_cast<double>(p.inflight) / inflight_max;
        os << fmt(x_of(p.t_ms)) << ',' << fmt((kLaneH - 12) - frac * (kLaneH - 28)) << ' ';
      }
      os << "\"/>\n";
    }
    for (const FleetStall& s : lane.stalls) {
      os << "<circle cx=\"" << fmt(x_of(s.t_ms)) << "\" cy=\"" << (kLaneH - 12)
         << "\" r=\"4\" fill=\"#cc2222\"/>\n<text x=\"" << fmt(x_of(s.t_ms) + 6) << "\" y=\""
         << (kLaneH - 16) << "\" class=\"s\">stall: ";
      write_html_text(os, s.unit);
      os << "</text>\n";
    }
    os << "</g>\n";
  }
  os << "</svg>\n</body></html>\n";
}

}  // namespace noceas::obs
