// Unit tests for the platform spec (de)serialization.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/noc/graph_topology.hpp"
#include "src/noc/platform_io.hpp"

namespace noceas {
namespace {

TEST(PlatformIo, RoundTripPreservesEverything) {
  EnergyParams energy;
  energy.e_sbit = 1.25e-3;
  energy.e_lbit = 2.5e-3;
  energy.e_bbit = 0.75e-3;
  const Platform p = make_mesh_platform(3, 4, std::vector<std::string>(12, "ARM"), 48.0,
                                        RoutingAlgorithm::YX, energy, /*torus=*/true,
                                        /*pipeline_guard=*/true);
  const Platform q = platform_from_string(platform_to_string(p));
  EXPECT_EQ(q.mesh().rows(), 3);
  EXPECT_EQ(q.mesh().cols(), 4);
  EXPECT_TRUE(q.mesh().wraparound());
  EXPECT_TRUE(q.pipeline_guard());
  EXPECT_EQ(q.routing(), RoutingAlgorithm::YX);
  EXPECT_DOUBLE_EQ(q.route_bandwidth(), 48.0);
  EXPECT_DOUBLE_EQ(q.energy().e_sbit, energy.e_sbit);
  EXPECT_DOUBLE_EQ(q.energy().e_lbit, energy.e_lbit);
  EXPECT_DOUBLE_EQ(q.energy().e_bbit, energy.e_bbit);
  for (PeId a : p.all_pes()) {
    EXPECT_EQ(q.pe(a).type, p.pe(a).type);
    for (PeId b : p.all_pes()) {
      EXPECT_EQ(q.route(a, b), p.route(a, b));
      EXPECT_DOUBLE_EQ(q.bit_energy(a, b), p.bit_energy(a, b));
    }
  }
}

TEST(PlatformIo, HeterogeneousTypesPreserved) {
  const Platform p = make_mesh_platform(2, 2, {"HPCPU", "DSP", "FPGA", "ARM"}, 64.0);
  const Platform q = platform_from_string(platform_to_string(p));
  EXPECT_EQ(q.pe(PeId{0}).type, "HPCPU");
  EXPECT_EQ(q.pe(PeId{3}).type, "ARM");
}

TEST(PlatformIo, SkipsComments) {
  const std::string text =
      "# my chip\n"
      "platform 2 2 32 XY 0 0 0.001 0.002 0\n"
      "# the tiles\n"
      "tiles A B C D\n";
  const Platform p = platform_from_string(text);
  EXPECT_EQ(p.num_pes(), 4u);
  EXPECT_EQ(p.pe(PeId{1}).type, "B");
}

TEST(PlatformIo, RejectsMalformedInput) {
  EXPECT_THROW(platform_from_string(""), Error);
  EXPECT_THROW(platform_from_string("nope 2 2 32 XY 0 0 1 1 0\ntiles A B C D\n"), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 ZZ 0 0 1 1 0\ntiles A B C D\n"), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 1 1 0\ntiles A B\n"), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 1 1 0\n"), Error);
  // Whole tokens, no trailing tokens or lines, a positive mesh; each
  // rejection names the line.
  const std::string tiles = "tiles A B C D\n";
  const std::pair<std::string, const char*> cases[] = {
      {"platform 2 2 32 XY 0 0 1 1 0 7\n" + tiles, "platform line 1: unexpected trailing token '7'"},
      {"platform 2x 2 32 XY 0 0 1 1 0\n" + tiles, "platform line 1: rows '2x'"},
      {"platform 2 2 32abc XY 0 0 1 1 0\n" + tiles, "platform line 1: bandwidth '32abc'"},
      {"platform 2 2 0x20 XY 0 0 1 1 0\n" + tiles, "platform line 1: bandwidth '0x20'"},
      {"platform 2 2 32 XY 0 0 1 1 0\n" + tiles + "tiles E F G H\n",
       "platform line 3: unexpected line"},
      {"platform 2 2 32 XY 0 0 1 1 0\ntile A B C D\n", "platform line 2: expected 'tiles'"},
      {"platform 2 2 32 XY 0 1.5 1 1 0\n" + tiles, "platform line 1: guard flag '1.5'"},
      {"platform 2 2 32 QQ 0 0 1 1 0\n" + tiles, "platform line 1: unknown routing scheme 'QQ'"},
  };
  for (const auto& [text, message] : cases) {
    try {
      (void)platform_from_string(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << "message '" << e.what() << "' lacks '" << message << "'";
    }
  }
  // Non-positive, non-finite or out-of-range mesh parameters.
  EXPECT_THROW(platform_from_string("platform -1 -1 32 XY 0 0 1 1 0\ntiles A\n"), Error);
  EXPECT_THROW(platform_from_string("platform 0 2 32 XY 0 0 1 1 0\ntiles\n"), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 -32 XY 0 0 1 1 0\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 inf XY 0 0 1 1 0\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 99999999999 2 32 XY 0 0 1 1 0\n" + tiles), Error);
}

TEST(PlatformIo, AcceptsCrlfTabsCommentsAndLeadingPlus) {
  const Platform p = platform_from_string(
      "# chip\r\n\r\nplatform\t+2 2 +32.5\tYX 1 +1 1e-3 +0.002 0\r\n"
      "  # tiles follow\r\ntiles\tA B\tC D \r\n");
  EXPECT_EQ(p.num_pes(), 4u);
  EXPECT_EQ(p.routing(), RoutingAlgorithm::YX);
  EXPECT_DOUBLE_EQ(p.route_bandwidth(), 32.5);
  EXPECT_TRUE(p.mesh().wraparound());
  EXPECT_TRUE(p.pipeline_guard());
  EXPECT_EQ(p.energy().e_lbit, 0.002);
  EXPECT_EQ(p.pe(PeId{3}).type, "D");
}

TEST(PlatformIo, RejectsNegativeOrNonFiniteEnergies) {
  const std::string tiles = "tiles A B C D\n";
  EXPECT_NO_THROW(platform_from_string("platform 2 2 32 XY 0 0 0 0 0\n" + tiles));
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 -0.001 0.002 0\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 0.001 -1e-9 0\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 0.001 0.002 -5\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 nan 0.002 0\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 0.001 inf 0\n" + tiles), Error);
  EXPECT_THROW(platform_from_string("platform 2 2 32 XY 0 0 0.001 0.002 1e999\n" + tiles), Error);
}

TEST(PlatformIo, GraphTopologyPlatformsHaveNoSpec) {
  const GraphTopology honey = make_honeycomb(2, 2);
  std::vector<PeDesc> pes;
  for (std::size_t t = 0; t < honey.num_tiles(); ++t) pes.push_back(PeDesc{"x", "X"});
  const Platform p(honey, pes, EnergyParams{}, 10.0);
  EXPECT_THROW((void)platform_to_string(p), Error);
}

}  // namespace
}  // namespace noceas
