// FaultScript: byte-exact serialization round-trips, parse diagnostics, the
// canonical sort, and the seeded generator's determinism.
#include "net/fault_script.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace trimgrad::net {
namespace {

FaultScript sample_script() {
  FaultScript s;
  s.plane.seed = 42;
  s.plane.corrupt_rate = 0.01;
  s.straggler_factor = 3.0;
  s.plane.corrupt_overrides.push_back({7, 2, 0.1});
  LinkFault l;
  l.node = 5;
  l.port = 1;
  l.start = 50e-6;
  l.duration = 20e-6;
  l.bandwidth_scale = 0.0;
  l.latency_scale = 1.0;
  l.period = 500e-6;
  l.repeats = 4;
  s.plane.link_faults.push_back(l);
  LinkFault brown = l;
  brown.node = 3;
  brown.bandwidth_scale = 1.0 / 3.0;  // a double that needs 17 digits
  brown.latency_scale = 2.5;
  s.plane.link_faults.push_back(brown);
  NodeFault n;
  n.node = 9;
  n.start = 1e-3;
  n.duration = 2e-4;
  n.repeats = 1;
  s.plane.node_faults.push_back(n);
  return s;
}

TEST(FaultScript, SerializeParseRoundTripsExactly) {
  const FaultScript s = sample_script();
  const std::string text = s.serialize();
  const FaultScript parsed = FaultScript::parse(text);
  EXPECT_EQ(parsed, s);
  EXPECT_EQ(parsed.serialize(), text)
      << "serialize(parse(s)) must be byte-identical for canonical output";
}

TEST(FaultScript, StreamSaveLoadRoundTrips) {
  const FaultScript s = sample_script();
  std::stringstream ss;
  s.save(ss);
  EXPECT_EQ(FaultScript::load(ss), s);
}

TEST(FaultScript, ParseToleratesCommentsAndBlankLines) {
  const FaultScript s = FaultScript::parse(
      "# a chaos repro\n"
      "faultscript v1\n"
      "\n"
      "seed 9\n"
      "# straggler next\n"
      "straggler 2\n");
  EXPECT_EQ(s.plane.seed, 9u);
  EXPECT_DOUBLE_EQ(s.straggler_factor, 2.0);
}

TEST(FaultScript, ParseRejectsMalformedInput) {
  EXPECT_THROW(FaultScript::parse("seed 1\n"), std::invalid_argument)
      << "header is mandatory";
  EXPECT_THROW(FaultScript::parse("faultscript v2\nseed 1\n"),
               std::invalid_argument);
  EXPECT_THROW(FaultScript::parse("faultscript v1\nwobble 3\n"),
               std::invalid_argument);
  EXPECT_THROW(FaultScript::parse("faultscript v1\nseed banana\n"),
               std::invalid_argument);
  EXPECT_THROW(FaultScript::parse("faultscript v1\nlink 1 2 3\n"),
               std::invalid_argument)
      << "wrong field count";
  EXPECT_THROW(FaultScript::parse("faultscript v1\ncorrupt_rate 0.5x\n"),
               std::invalid_argument)
      << "trailing junk after a number";
}

TEST(FaultScript, ParseRejectsNumbersOutsideTheirFieldsRange) {
  // A sign on an integer field, a node id past NodeId, an overflowing seed
  // and a non-finite double are bad numbers, not wrapped or NaN values.
  for (const char* line :
       {"node -1 0.001 0.002 0 1", "node 4294967296 0.001 0.002 0 1",
        "corrupt 3 -1 0.5", "seed 99999999999999999999999",
        "corrupt_rate nan", "straggler inf", "link 1 2 0 1e400 0 1 0 1"}) {
    EXPECT_THROW(FaultScript::parse(std::string("faultscript v1\n") + line),
                 std::invalid_argument)
        << line;
  }
  EXPECT_EQ(FaultScript::parse("faultscript v1\nnode 4294967295 0 1 0 1")
                .plane.node_faults.at(0)
                .node,
            4294967295u);
}

TEST(FaultScript, ParseRejectsValuesOutsideTheirDomain) {
  // Probabilities outside [0, 1], negative times and scales, a latency
  // scale that would shrink a link's delay, and a straggler that speeds a
  // rank up are not faults the plane can apply.
  for (const char* line :
       {"corrupt_rate 7", "corrupt_rate -0.5", "corrupt 3 1 1.5",
        "corrupt 3 1 -0.1", "straggler -3", "straggler 0.5",
        "link 1 2 -1 1 0 1 0 1", "link 1 2 0 -1 0 1 0 1",
        "link 1 2 0 1 -0.1 1 0 1", "link 1 2 0 1 0 0.5 0 1",
        "link 1 2 0 1 0 1 -1 1", "node 1 -0.001 1 0 1", "node 1 0 -1 0 1",
        "node 1 0 1 -1 1"}) {
    try {
      FaultScript::parse(std::string("faultscript v1\n") + line);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << "message was: " << e.what();
    }
  }
  // The bounds themselves are valid.
  const FaultScript s = FaultScript::parse(
      "faultscript v1\ncorrupt_rate 1\nstraggler 1\ncorrupt 3 1 0\n"
      "link 1 2 0 0 0 1 0 1\nnode 1 0 0 0 1\n");
  EXPECT_EQ(s.plane.corrupt_rate, 1.0);
  EXPECT_EQ(s.plane.link_faults.at(0).latency_scale, 1.0);
}

TEST(FaultScript, EveryGeneratedScriptParses) {
  ScriptGenConfig cfg;
  cfg.links = {{10, 0}, {11, 2}, {12, 1}};
  cfg.nodes = {10, 11, 12};
  for (const double intensity : {0.1, 0.5, 1.0, 4.0}) {
    cfg.intensity = intensity;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      cfg.seed = seed;
      const FaultScript s = generate_fault_script(cfg);
      EXPECT_EQ(FaultScript::parse(s.serialize()), s)
          << "seed " << seed << " intensity " << intensity;
    }
  }
}

TEST(FaultScript, ParseErrorNamesTheOffendingLine) {
  try {
    FaultScript::parse("faultscript v1\nnode 1 0.1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 1 0.1"), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(FaultScript, LoadFileThrowsOnMissingPath) {
  EXPECT_THROW(FaultScript::load_file("/nonexistent/chaos.txt"),
               std::runtime_error);
}

TEST(FaultScript, EventCountCountsEveryFaultSource) {
  FaultScript s;
  EXPECT_EQ(s.event_count(), 0u);
  s.plane.corrupt_rate = 0.01;
  EXPECT_EQ(s.event_count(), 1u);
  s.straggler_factor = 2.0;
  EXPECT_EQ(s.event_count(), 2u);
  s.plane.link_faults.emplace_back();
  s.plane.node_faults.emplace_back();
  s.plane.corrupt_overrides.emplace_back();
  EXPECT_EQ(s.event_count(), 5u);
}

TEST(FaultScript, SortedIsInsertionOrderInvariant) {
  FaultScript a = sample_script();
  FaultScript b = sample_script();
  std::swap(b.plane.link_faults[0], b.plane.link_faults[1]);
  EXPECT_NE(a, b) << "serialization order differs before normalization";
  EXPECT_EQ(a.sorted(), b.sorted());
  EXPECT_EQ(a.sorted().serialize(), b.sorted().serialize());
}

TEST(FaultScript, GeneratorIsDeterministicInItsConfig) {
  ScriptGenConfig cfg;
  cfg.seed = 123;
  cfg.intensity = 0.8;
  for (NodeId n = 0; n < 6; ++n) {
    cfg.links.push_back({n, 0});
    cfg.links.push_back({n, 1});
    cfg.nodes.push_back(n);
  }
  const FaultScript a = generate_fault_script(cfg);
  const FaultScript b = generate_fault_script(cfg);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.event_count(), 0u);

  cfg.seed = 124;
  const FaultScript c = generate_fault_script(cfg);
  EXPECT_NE(a, c) << "different seeds must decorrelate the draw";

  // Generated scripts are valid serialized artifacts.
  EXPECT_EQ(FaultScript::parse(a.serialize()), a);
}

TEST(FaultScript, ZeroIntensityYieldsQuietScript) {
  ScriptGenConfig cfg;
  cfg.seed = 5;
  cfg.intensity = 0.0;
  cfg.links.push_back({1, 0});
  cfg.nodes.push_back(1);
  const FaultScript s = generate_fault_script(cfg);
  EXPECT_EQ(s.event_count(), 0u);
  EXPECT_EQ(s.plane.seed, 5u);
}

TEST(FaultScript, GeneratedFaultsRespectCandidatesAndHorizon) {
  ScriptGenConfig cfg;
  cfg.seed = 77;
  cfg.intensity = 1.0;
  cfg.horizon = 5e-3;
  cfg.links = {{10, 0}, {11, 2}};
  cfg.nodes = {10, 11};
  const FaultScript s = generate_fault_script(cfg);
  for (const auto& l : s.plane.link_faults) {
    EXPECT_TRUE((l.node == 10 && l.port == 0) || (l.node == 11 && l.port == 2))
        << "link fault targets a non-candidate port";
    EXPECT_GE(l.start, 0.0);
    EXPECT_LT(l.start, cfg.horizon);
    EXPECT_GT(l.duration, 0.0);
  }
  for (const auto& n : s.plane.node_faults) {
    EXPECT_TRUE(n.node == 10 || n.node == 11);
    EXPECT_LT(n.start, cfg.horizon);
  }
}

}  // namespace
}  // namespace trimgrad::net
