#include "src/noc/platform_io.hpp"

#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/util/text_scan.hpp"

namespace noceas {

void write_platform(std::ostream& os, const Platform& p) {
  NOCEAS_REQUIRE(p.is_mesh(), "only mesh platforms have a text spec");
  const Mesh2D& mesh = p.mesh();
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "platform " << mesh.rows() << ' ' << mesh.cols() << ' ' << p.route_bandwidth() << ' '
     << to_string(p.routing()) << ' ' << (mesh.wraparound() ? 1 : 0) << ' '
     << (p.pipeline_guard() ? 1 : 0) << ' ' << p.energy().e_sbit << ' ' << p.energy().e_lbit
     << ' ' << p.energy().e_bbit << '\n';
  os << "tiles";
  for (PeId pe : p.all_pes()) os << ' ' << p.pe(pe).type;
  os << '\n';
  NOCEAS_REQUIRE(os.good(), "stream failure while writing platform");
}

Platform platform_from_string(std::string_view text) {
  TextScanner scan(text, "platform");
  scan.require_line(
      "the 'platform <rows> <cols> <bw> <XY|YX> <torus> <guard> <e_sbit> <e_lbit> <e_bbit>' "
      "line");
  scan.keyword("platform");
  const auto rows = scan.number<int>("rows");
  const auto cols = scan.number<int>("cols");
  const auto bw = scan.number<Bandwidth>("bandwidth");
  const std::string_view routing_tok = scan.token("routing scheme");
  const auto torus = scan.number<int>("torus flag");
  const auto guard = scan.number<int>("guard flag");
  EnergyParams energy;
  energy.e_sbit = scan.number<Energy>("e_sbit");
  energy.e_lbit = scan.number<Energy>("e_lbit");
  energy.e_bbit = scan.number<Energy>("e_bbit");
  scan.end_line();
  const std::pair<const char*, Energy> energies[] = {
      {"e_sbit", energy.e_sbit}, {"e_lbit", energy.e_lbit}, {"e_bbit", energy.e_bbit}};
  for (const auto& [name, value] : energies) {
    NOCEAS_REQUIRE(value >= 0.0, "platform " << name << " must be an energy >= 0, got " << value);
  }
  RoutingAlgorithm algo;
  if (routing_tok == "XY") {
    algo = RoutingAlgorithm::XY;
  } else if (routing_tok == "YX") {
    algo = RoutingAlgorithm::YX;
  } else {
    scan.fail("unknown routing scheme '" + std::string(routing_tok) + '\'');
  }

  scan.require_line("the 'tiles <types...>' line");
  scan.keyword("tiles");
  std::vector<std::string> types;
  while (!scan.at_line_end()) types.emplace_back(scan.token("tile type"));
  NOCEAS_REQUIRE(types.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                 types.size() << " tile types for a " << rows << 'x' << cols << " mesh");
  if (scan.next_line()) scan.fail("unexpected line after the tiles line");
  return make_mesh_platform(rows, cols, std::move(types), bw, algo, energy, torus != 0,
                            guard != 0);
}

Platform read_platform(std::istream& is) { return platform_from_string(read_stream_text(is)); }

std::string platform_to_string(const Platform& p) {
  std::ostringstream os;
  write_platform(os, p);
  return os.str();
}

}  // namespace noceas
