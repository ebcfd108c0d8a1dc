// Unit tests for the platform spec (de)serialization.
#include <gtest/gtest.h>

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
