#include "src/noc/platform_io.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

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

namespace {
bool next_line(std::istream& is, std::istringstream& line_stream) {
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    line_stream.clear();
    line_stream.str(line);
    return true;
  }
  return false;
}
}  // namespace

Platform read_platform(std::istream& is) {
  std::istringstream line;
  NOCEAS_REQUIRE(next_line(is, line), "empty platform file");
  std::string tag, routing_tok;
  int rows = 0, cols = 0, torus = 0, guard = 0;
  Bandwidth bw = 0.0;
  EnergyParams energy;
  line >> tag >> rows >> cols >> bw >> routing_tok >> torus >> guard >> energy.e_sbit >>
      energy.e_lbit >> energy.e_bbit;
  NOCEAS_REQUIRE(tag == "platform" && !line.fail(),
                 "expected 'platform <rows> <cols> <bw> <XY|YX> <torus> <guard> "
                 "<e_sbit> <e_lbit> <e_bbit>'");
  const std::pair<const char*, Energy> energies[] = {
      {"e_sbit", energy.e_sbit}, {"e_lbit", energy.e_lbit}, {"e_bbit", energy.e_bbit}};
  for (const auto& [name, value] : energies) {
    NOCEAS_REQUIRE(std::isfinite(value) && value >= 0.0,
                   "platform " << name << " must be a finite energy >= 0, got " << value);
  }
  RoutingAlgorithm algo;
  if (routing_tok == "XY") {
    algo = RoutingAlgorithm::XY;
  } else if (routing_tok == "YX") {
    algo = RoutingAlgorithm::YX;
  } else {
    NOCEAS_REQUIRE(false, "unknown routing scheme '" << routing_tok << '\'');
  }

  NOCEAS_REQUIRE(next_line(is, line), "missing 'tiles' line");
  line >> tag;
  NOCEAS_REQUIRE(tag == "tiles", "expected 'tiles <types...>'");
  std::vector<std::string> types;
  std::string type;
  while (line >> type) types.push_back(type);
  NOCEAS_REQUIRE(types.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                 types.size() << " tile types for a " << rows << 'x' << cols << " mesh");
  return make_mesh_platform(rows, cols, std::move(types), bw, algo, energy, torus != 0,
                            guard != 0);
}

std::string platform_to_string(const Platform& p) {
  std::ostringstream os;
  write_platform(os, p);
  return os.str();
}

Platform platform_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_platform(is);
}

}  // namespace noceas
