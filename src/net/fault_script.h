// FaultScript: a serializable superset of the fault plane's configuration,
// plus a seeded random generator over it.
//
// A FaultLog records what a run's faults *did*; a FaultScript says what the
// fault plane *will do* — the corruption seed and rates, every link and node
// fault window, and the straggler factor — in one text artifact that
// round-trips byte-identically through serialize()/parse(). That makes a
// chaos scenario a file: `ExperimentSpec faults=file:<path>` loads one, the
// chaos-search shrinker (ddp/chaos_search.h) writes minimal repros as one,
// and CI uploads them as replayable artifacts.
//
// Text form (one directive per line, '#' comments, doubles printed with the
// shortest representation that round-trips exactly):
//
//   faultscript v1
//   seed 7
//   corrupt_rate 0.01
//   straggler 3
//   corrupt <node> <port> <rate>
//   link <node> <port> <start> <duration> <bw_scale> <lat_scale> <period> <reps>
//   node <node> <start> <duration> <period> <reps>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/fault_plane.h"

namespace trimgrad::net {

struct FaultScript {
  FaultPlaneConfig plane;
  /// net::StragglerSchedule factor; 1.0 disables straggler injection.
  double straggler_factor = 1.0;

  bool operator==(const FaultScript&) const = default;

  /// Number of fault "events" the script describes: one per link fault, node
  /// fault, and corrupt override, plus one each for a positive global
  /// corrupt rate and an enabled straggler. The shrinker's minimality and
  /// the mutation test's "<= 3 events" bound count in this unit.
  std::size_t event_count() const noexcept;

  /// Canonical text form; parse(serialize()) == *this and
  /// serialize(parse(s)) == s for any serialize() output.
  std::string serialize() const;
  /// Throws std::invalid_argument naming the offending line on malformed
  /// input (unknown directive, wrong field count, bad number, bad header)
  /// and on a value outside its field's domain: rates in [0, 1]; start,
  /// duration, period and bandwidth_scale >= 0; latency_scale and the
  /// straggler factor >= 1.
  static FaultScript parse(const std::string& text);

  void save(std::ostream& os) const;
  static FaultScript load(std::istream& is);
  /// Convenience: parse the file at `path`; throws std::runtime_error when
  /// the file cannot be read, std::invalid_argument when it is malformed.
  static FaultScript load_file(const std::string& path);

  /// Copy with link/node faults and corrupt overrides in a canonical order
  /// (serialization is order-sensitive; comparisons across generators or
  /// shrink paths go through this normal form).
  FaultScript sorted() const;
};

/// Inputs for the seeded script generator. Candidates come from a concrete
/// topology (switch egress ports, killable nodes); the generator never
/// invents ids, so a generated script replays against any identically built
/// fabric.
struct ScriptGenConfig {
  std::uint64_t seed = 1;
  /// 0..1: scales how many fault windows are drawn, how long they last, and
  /// how aggressive rates get. 0 yields an all-quiet script (seed only).
  double intensity = 0.5;
  /// Fault windows are placed in [0, horizon) on the simulated clock.
  SimTime horizon = 20e-3;
  /// Candidate (node, egress port) pairs for link faults.
  std::vector<std::pair<NodeId, std::size_t>> links;
  /// Candidate nodes for whole-node kill windows.
  std::vector<NodeId> nodes;
};

/// Draw one script. Deterministic in cfg (same cfg -> identical script);
/// different seeds decorrelate every choice.
FaultScript generate_fault_script(const ScriptGenConfig& cfg);

}  // namespace trimgrad::net
