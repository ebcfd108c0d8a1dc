#include "src/audit/decision_log.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string_view>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::audit {

namespace {

// ---- JSON writing ----------------------------------------------------------
// Records are appended to one string chunk that is flushed to the stream
// every kChunkBytes; numbers go through std::to_chars (json::append_*).
// tests/golden/decisions_*.jsonl pin the bytes.

constexpr std::size_t kChunkBytes = 64 * 1024;

template <typename T>
void field(std::string& out, std::string_view key, T v) {
  out += key;
  json::append_int(out, v);
}

void real_field(std::string& out, std::string_view key, double v) {
  out += key;
  json::append_double(out, v);
}

void write_int_array(std::string& out, const std::vector<std::int32_t>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    json::append_int(out, xs[i]);
  }
  out += ']';
}

/// kNoDeadline round-trips as -1 (same convention as the trace args).
std::int64_t budget_repr(Time t) { return t == kNoDeadline ? -1 : t; }
Time budget_parse(std::int64_t v) { return v < 0 ? kNoDeadline : v; }

void write_place(std::string& out, const DecisionEvent& e) {
  const PlacementDecision& d = e.place;
  field(out, "{\"type\":\"place\",\"seq\":", e.seq);
  field(out, ",\"task\":", d.task);
  field(out, ",\"pe\":", d.pe);
  field(out, ",\"start\":", d.start);
  field(out, ",\"finish\":", d.finish);
  field(out, ",\"bd\":", budget_repr(d.budget));
  out += ",\"rule\":";
  json::append_string(out, d.rule);
  out += ",\"ready\":";
  write_int_array(out, d.ready);
  out += ",\"candidates\":[";
  for (std::size_t i = 0; i < d.candidates.size(); ++i) {
    const CandidateRow& c = d.candidates[i];
    if (i > 0) out += ',';
    field(out, "{\"task\":", c.task);
    field(out, ",\"pe\":", c.pe);
    field(out, ",\"f\":", c.finish);
    real_field(out, ",\"e\":", c.energy);
    out += c.feasible ? ",\"feasible\":true" : ",\"feasible\":false";
    real_field(out, ",\"score\":", c.score);
    out += '}';
  }
  out += "],\"comms\":[";
  for (std::size_t i = 0; i < d.comms.size(); ++i) {
    const CommRecord& c = d.comms[i];
    if (i > 0) out += ',';
    field(out, "{\"edge\":", c.edge);
    field(out, ",\"src_task\":", c.src_task);
    field(out, ",\"src_pe\":", c.src_pe);
    field(out, ",\"dst_pe\":", c.dst_pe);
    field(out, ",\"src_finish\":", c.src_finish);
    field(out, ",\"start\":", c.start);
    field(out, ",\"dur\":", c.duration);
    out += ",\"route\":";
    write_int_array(out, c.route);
    out += '}';
  }
  out += "]}\n";
}

void write_move(std::string& out, const DecisionEvent& e) {
  const RepairMoveRecord& m = e.move;
  field(out, "{\"type\":\"repair_move\",\"seq\":", e.seq);
  out += ",\"kind\":";
  json::append_string(out, m.kind);
  field(out, ",\"task\":", m.task);
  if (m.kind == "lts") {
    field(out, ",\"pe\":", m.pe);
    field(out, ",\"pos_a\":", m.pos_a);
    field(out, ",\"pos_b\":", m.pos_b);
    field(out, ",\"swap_with\":", m.swap_with);
  } else {
    field(out, ",\"from_pe\":", m.from_pe);
    field(out, ",\"to_pe\":", m.to_pe);
    field(out, ",\"insert_index\":", m.insert_index);
    real_field(out, ",\"delta_e\":", m.delta_energy);
  }
  out += m.accepted ? ",\"accepted\":true" : ",\"accepted\":false";
  field(out, ",\"misses_before\":", m.misses_before);
  field(out, ",\"misses_after\":", m.misses_after);
  field(out, ",\"tardiness_before\":", m.tardiness_before);
  field(out, ",\"tardiness_after\":", m.tardiness_after);
  out += "}\n";
}

void write_final(std::string& out, const FinalRecord& f) {
  out += "{\"type\":\"final\",\"tasks\":[";
  for (std::size_t i = 0; i < f.tasks.size(); ++i) {
    if (i > 0) out += ',';
    field(out, "[", f.tasks[i].pe);
    field(out, ",", f.tasks[i].start);
    field(out, ",", f.tasks[i].finish);
    out += ']';
  }
  out += "],\"comms\":[";
  for (std::size_t i = 0; i < f.comms.size(); ++i) {
    if (i > 0) out += ',';
    field(out, "[", f.comms[i].src_pe);
    field(out, ",", f.comms[i].dst_pe);
    field(out, ",", f.comms[i].start);
    field(out, ",", f.comms[i].duration);
    out += ']';
  }
  real_field(out, "],\"comp_energy\":", f.computation_energy);
  real_field(out, ",\"comm_energy\":", f.communication_energy);
  field(out, ",\"misses\":", f.miss_count);
  field(out, ",\"tardiness\":", f.total_tardiness);
  out += "}\n";
}

void write_event(std::string& out, const DecisionEvent& e) {
  switch (e.kind) {
    case DecisionEvent::Kind::BeginAttempt:
      field(out, "{\"type\":\"attempt\",\"seq\":", e.seq);
      field(out, ",\"index\":", e.attempt);
      out += "}\n";
      break;
    case DecisionEvent::Kind::Place: write_place(out, e); break;
    case DecisionEvent::Kind::RepairBegin:
    case DecisionEvent::Kind::RepairEnd:
      field(out,
            e.kind == DecisionEvent::Kind::RepairBegin ? "{\"type\":\"repair_begin\",\"seq\":"
                                                       : "{\"type\":\"repair_end\",\"seq\":",
            e.seq);
      field(out, ",\"misses\":", e.repair_misses);
      field(out, ",\"tardiness\":", e.repair_tardiness);
      out += "}\n";
      break;
    case DecisionEvent::Kind::RepairMove: write_move(out, e); break;
  }
}

// ---- JSON parsing ----------------------------------------------------------
// The parser is shared repo-wide (src/util/json.hpp); this file only maps
// parsed views onto the decision-event structs.

using Json = json::View;

/// Events reserved up front from the header's task count; capped so a
/// corrupt header cannot demand a huge allocation.
constexpr std::size_t kMaxReservedEvents = 1 << 14;

void parse_int_array(Json j, std::vector<std::int32_t>& out) {
  NOCEAS_REQUIRE(j.kind() == json::Kind::Arr, "decision stream: expected an array");
  out.reserve(j.size());
  for (const Json v : j) out.push_back(v.i32());
}

void parse_place(Json j, DecisionEvent& e) {
  e.kind = DecisionEvent::Kind::Place;
  e.seq = j.at("seq").u64();
  PlacementDecision& d = e.place;
  d.task = j.at("task").i32();
  d.pe = j.at("pe").i32();
  d.start = j.at("start").i64();
  d.finish = j.at("finish").i64();
  d.budget = budget_parse(j.at("bd").i64());
  d.rule = j.at("rule").str();
  parse_int_array(j.at("ready"), d.ready);
  const Json candidates = j.at("candidates");
  d.candidates.reserve(candidates.size());
  for (const Json c : candidates) {
    CandidateRow& row = d.candidates.emplace_back();
    row.task = c.at("task").i32();
    row.pe = c.at("pe").i32();
    row.finish = c.at("f").i64();
    row.energy = c.at("e").num();
    row.feasible = c.at("feasible").boolean();
    row.score = c.at("score").num();
  }
  const Json comms = j.at("comms");
  d.comms.reserve(comms.size());
  for (const Json c : comms) {
    CommRecord& comm = d.comms.emplace_back();
    comm.edge = c.at("edge").i32();
    comm.src_task = c.at("src_task").i32();
    comm.src_pe = c.at("src_pe").i32();
    comm.dst_pe = c.at("dst_pe").i32();
    comm.src_finish = c.at("src_finish").i64();
    comm.start = c.at("start").i64();
    comm.duration = c.at("dur").i64();
    parse_int_array(c.at("route"), comm.route);
  }
}

void parse_move(Json j, DecisionEvent& e) {
  e.kind = DecisionEvent::Kind::RepairMove;
  e.seq = j.at("seq").u64();
  RepairMoveRecord& m = e.move;
  m.kind = j.at("kind").str();
  m.task = j.at("task").i32();
  if (m.kind == "lts") {
    m.pe = j.at("pe").i32();
    m.pos_a = j.at("pos_a").i32();
    m.pos_b = j.at("pos_b").i32();
    m.swap_with = j.at("swap_with").i32();
  } else if (m.kind == "gtm") {
    m.from_pe = j.at("from_pe").i32();
    m.to_pe = j.at("to_pe").i32();
    m.insert_index = j.at("insert_index").i32();
    m.delta_energy = j.at("delta_e").num();
  } else {
    NOCEAS_REQUIRE(false, "decision stream: unknown repair move kind '" << m.kind << '\'');
  }
  m.accepted = j.at("accepted").boolean();
  m.misses_before = j.at("misses_before").u64();
  m.misses_after = j.at("misses_after").u64();
  m.tardiness_before = j.at("tardiness_before").i64();
  m.tardiness_after = j.at("tardiness_after").i64();
}

void parse_final(Json j, FinalRecord& f) {
  const Json tasks = j.at("tasks");
  f.tasks.reserve(tasks.size());
  for (const Json t : tasks) {
    NOCEAS_REQUIRE(t.kind() == json::Kind::Arr && t.size() == 3,
                   "decision stream: final task row needs [pe,start,finish]");
    f.tasks.push_back(FinalTask{t[0].i32(), t[1].i64(), t[2].i64()});
  }
  const Json comms = j.at("comms");
  f.comms.reserve(comms.size());
  for (const Json c : comms) {
    NOCEAS_REQUIRE(c.kind() == json::Kind::Arr && c.size() == 4,
                   "decision stream: final comm row needs [src,dst,start,dur]");
    f.comms.push_back(FinalComm{c[0].i32(), c[1].i32(), c[2].i64(), c[3].i64()});
  }
  f.computation_energy = j.at("comp_energy").num();
  f.communication_energy = j.at("comm_energy").num();
  f.miss_count = j.at("misses").u64();
  f.total_tardiness = j.at("tardiness").i64();
}

}  // namespace

// ---- DecisionLog -----------------------------------------------------------

void DecisionLog::begin_run(const std::string& scheduler, std::size_t num_tasks,
                            std::size_t num_edges, std::size_t num_pes) {
  stream_ = DecisionStream{};
  next_seq_ = 0;
  stream_.scheduler = scheduler;
  stream_.num_tasks = num_tasks;
  stream_.num_edges = num_edges;
  stream_.num_pes = num_pes;
}

DecisionEvent& DecisionLog::push(DecisionEvent::Kind kind) {
  DecisionEvent e;
  e.kind = kind;
  e.seq = next_seq_++;
  stream_.events.push_back(std::move(e));
  return stream_.events.back();
}

void DecisionLog::begin_attempt(int index) { push(DecisionEvent::Kind::BeginAttempt).attempt = index; }

void DecisionLog::record_placement(PlacementDecision decision) {
  push(DecisionEvent::Kind::Place).place = std::move(decision);
}

void DecisionLog::record_repair_begin(std::uint64_t misses, Time tardiness) {
  DecisionEvent& e = push(DecisionEvent::Kind::RepairBegin);
  e.repair_misses = misses;
  e.repair_tardiness = tardiness;
}

void DecisionLog::record_repair_move(RepairMoveRecord move) {
  push(DecisionEvent::Kind::RepairMove).move = std::move(move);
}

void DecisionLog::record_repair_end(std::uint64_t misses, Time tardiness) {
  DecisionEvent& e = push(DecisionEvent::Kind::RepairEnd);
  e.repair_misses = misses;
  e.repair_tardiness = tardiness;
}

void DecisionLog::record_final(FinalRecord final) {
  stream_.has_final = true;
  stream_.final = std::move(final);
}

void DecisionLog::write_jsonl(std::ostream& os) const { write_decision_jsonl(os, stream_); }

void write_decision_jsonl(std::ostream& os, const DecisionStream& stream) {
  std::string out;
  out.reserve(kChunkBytes + kChunkBytes / 4);
  const auto flush = [&] {
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  };
  out += "{\"schema\":\"noceas.decisions.v1\",\"scheduler\":";
  json::append_string(out, stream.scheduler);
  field(out, ",\"tasks\":", stream.num_tasks);
  field(out, ",\"edges\":", stream.num_edges);
  field(out, ",\"pes\":", stream.num_pes);
  out += "}\n";
  for (const DecisionEvent& e : stream.events) {
    write_event(out, e);
    if (out.size() >= kChunkBytes) flush();
  }
  if (stream.has_final) write_final(out, stream.final);
  flush();
  NOCEAS_REQUIRE(os.good(), "failed writing decision stream");
}

DecisionStream read_decision_stream(std::istream& is) {
  DecisionStream stream;
  std::string line;
  json::Document doc;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    doc.parse(line, "decision stream");
    const Json j = doc.root();
    if (!saw_header) {
      const std::string_view schema = j.at("schema").str();
      NOCEAS_REQUIRE(schema == "noceas.decisions.v1",
                     "unknown decision stream schema '" << schema << '\'');
      stream.scheduler = j.at("scheduler").str();
      stream.num_tasks = j.at("tasks").u64();
      stream.num_edges = j.at("edges").u64();
      stream.num_pes = j.at("pes").u64();
      stream.events.reserve(std::min<std::size_t>(stream.num_tasks + 2, kMaxReservedEvents));
      saw_header = true;
      continue;
    }
    const std::string_view type = j.at("type").str();
    if (type == "attempt") {
      DecisionEvent& e = stream.events.emplace_back();
      e.kind = DecisionEvent::Kind::BeginAttempt;
      e.seq = j.at("seq").u64();
      e.attempt = j.at("index").i32();
    } else if (type == "place") {
      parse_place(j, stream.events.emplace_back());
    } else if (type == "repair_begin" || type == "repair_end") {
      DecisionEvent& e = stream.events.emplace_back();
      e.kind = type == "repair_begin" ? DecisionEvent::Kind::RepairBegin
                                      : DecisionEvent::Kind::RepairEnd;
      e.seq = j.at("seq").u64();
      e.repair_misses = j.at("misses").u64();
      e.repair_tardiness = j.at("tardiness").i64();
    } else if (type == "repair_move") {
      parse_move(j, stream.events.emplace_back());
    } else if (type == "final") {
      NOCEAS_REQUIRE(!stream.has_final, "decision stream: duplicate final record");
      stream.has_final = true;
      parse_final(j, stream.final);
    } else {
      NOCEAS_REQUIRE(false, "decision stream: unknown record type '" << type << '\'');
    }
  }
  NOCEAS_REQUIRE(saw_header, "decision stream: missing header line");
  return stream;
}

}  // namespace noceas::audit
