// Compression control plane: the policy registry, the three built-in
// policies' decision semantics, state round-trips, and the NetFeedback
// wire format. Decisions must be pure functions of (state, round, prev
// feedback) — the trainer's bit-identical-across-threads guarantee rests
// on that.
#include "core/policy.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace trimgrad::core {
namespace {

NetFeedback feedback(std::uint64_t packets, std::uint64_t trimmed,
                     std::uint64_t retransmits = 0) {
  NetFeedback fb;
  fb.packets = packets;
  fb.trimmed = trimmed;
  fb.retransmits = retransmits;
  return fb;
}

TEST(PolicyRegistry, NamesAreSortedAndComplete) {
  const auto names = PolicyRegistry::global().names();
  const std::vector<std::string> expected = {"aimd-trim", "fixed",
                                             "schedule"};
  EXPECT_EQ(names, expected);
}

TEST(PolicyRegistry, UnknownNameListsRegisteredPolicies) {
  PolicyConfig cfg;
  cfg.policy = "oracle";
  try {
    (void)PolicyRegistry::global().make(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("oracle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("aimd-trim"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fixed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("schedule"), std::string::npos) << msg;
  }
}

TEST(PolicyRegistry, NonPacketTrainCodecIsRejected) {
  // eden was a side codec with no trimmable packet train and is no longer
  // registered, so no policy may select it for the round loop.
  PolicyConfig cfg;
  cfg.codec = "eden";
  for (const char* policy : {"fixed", "aimd-trim"}) {
    cfg.policy = policy;
    EXPECT_THROW((void)PolicyRegistry::global().make(cfg),
                 std::invalid_argument)
        << policy;
  }
}

TEST(FixedPolicy, ReturnsTheConfiguredDecisionForever) {
  PolicyConfig cfg;
  cfg.policy = "fixed";
  cfg.codec = "sq";
  cfg.q_bits = 15;
  auto policy = PolicyRegistry::global().make(cfg);
  EXPECT_STREQ(policy->name(), "fixed");
  const PolicyDecision want{"sq", 15};
  EXPECT_EQ(policy->decide(0, feedback(0, 0)), want);
  // Feedback, however hostile, never moves a fixed policy.
  EXPECT_EQ(policy->decide(7, feedback(100, 100)), want);
  EXPECT_TRUE(policy->state().empty());
}

TEST(FixedPolicy, RestoreRejectsNonEmptyState) {
  PolicyConfig cfg;
  auto policy = PolicyRegistry::global().make(cfg);
  const std::vector<std::uint8_t> junk(8, 0xab);
  EXPECT_NO_THROW(policy->restore({}));
  EXPECT_THROW(policy->restore(junk), std::runtime_error);
}

TEST(AimdTrimPolicy, CutsQUnderPressureAndRecoversAdditively) {
  PolicyConfig cfg;
  cfg.policy = "aimd-trim";
  cfg.aimd.min_q = 7;
  cfg.aimd.max_q = 31;
  cfg.aimd.initial_q = 31;
  cfg.aimd.target_trim = 0.05;
  cfg.aimd.hot_factor = 3.0;
  cfg.aimd.additive_step = 2;
  auto policy = PolicyRegistry::global().make(cfg);

  // Round 0 has no previous feedback: the initial Q goes out untouched.
  EXPECT_EQ(policy->decide(0, {}).q_bits, 31u);
  // Hot trimming (80% >> 15% hot threshold): multiplicative halving.
  EXPECT_EQ(policy->decide(1, feedback(100, 80)).q_bits, 15u);
  EXPECT_EQ(policy->decide(2, feedback(100, 80)).q_bits, 7u);
  // Clamped at the floor.
  EXPECT_EQ(policy->decide(3, feedback(100, 80)).q_bits, 7u);
  // Quiet fabric: additive recovery, clamped at max_q.
  unsigned q = 7;
  for (std::uint64_t round = 4; round < 20; ++round) {
    q = std::min(31u, q + 2);
    EXPECT_EQ(policy->decide(round, feedback(100, 0)).q_bits, q);
  }
  EXPECT_EQ(q, 31u);
}

TEST(AimdTrimPolicy, RetransmitsCountAsPressure) {
  // The reliable transport never trims, but its retransmissions must feed
  // the same controller (that is what the bench's congestion phase emits).
  PolicyConfig cfg;
  cfg.policy = "aimd-trim";
  auto policy = PolicyRegistry::global().make(cfg);
  EXPECT_EQ(policy->decide(0, {}).q_bits, 31u);
  EXPECT_EQ(policy->decide(1, feedback(100, 0, 80)).q_bits, 15u);
}

TEST(AimdTrimPolicy, StateRoundTripReplaysIdenticalDecisions) {
  PolicyConfig cfg;
  cfg.policy = "aimd-trim";
  auto a = PolicyRegistry::global().make(cfg);
  (void)a->decide(0, {});
  (void)a->decide(1, feedback(100, 60));  // cut toward the floor
  const auto blob = a->state();

  auto b = PolicyRegistry::global().make(cfg);
  b->restore(blob);
  // From the same state and feedback stream, decisions must match exactly.
  for (std::uint64_t round = 2; round < 12; ++round) {
    const NetFeedback fb = feedback(100, round % 3 == 0 ? 50 : 0);
    EXPECT_EQ(a->decide(round, fb), b->decide(round, fb)) << round;
  }
}

TEST(AimdTrimPolicy, RestoreRejectsMalformedBlobs) {
  PolicyConfig cfg;
  cfg.policy = "aimd-trim";
  auto policy = PolicyRegistry::global().make(cfg);
  EXPECT_THROW(policy->restore(std::vector<std::uint8_t>(3, 0)),
               std::runtime_error);  // truncated
  std::vector<std::uint8_t> zero_q(8, 0);
  EXPECT_THROW(policy->restore(zero_q), std::runtime_error);  // q = 0
  std::vector<std::uint8_t> trailing(9, 1);
  EXPECT_THROW(policy->restore(trailing), std::runtime_error);
}

TEST(SchedulePolicy, AppliesEntriesFromTheirRoundOnward) {
  PolicyConfig cfg;
  cfg.policy = "schedule";
  cfg.codec = "rht";
  cfg.q_bits = 31;
  cfg.schedule = "8:sd@15;4:sq@23";  // out of order on purpose
  auto policy = PolicyRegistry::global().make(cfg);
  EXPECT_STREQ(policy->name(), "schedule");
  const PolicyDecision base{"rht", 31};
  const PolicyDecision mid{"sq", 23};
  const PolicyDecision late{"sd", 15};
  EXPECT_EQ(policy->decide(0, {}), base);
  EXPECT_EQ(policy->decide(3, {}), base);
  EXPECT_EQ(policy->decide(4, {}), mid);
  EXPECT_EQ(policy->decide(7, {}), mid);
  EXPECT_EQ(policy->decide(8, {}), late);
  EXPECT_EQ(policy->decide(1000, {}), late);
  EXPECT_TRUE(policy->state().empty());
}

TEST(SchedulePolicy, MalformedScriptsFailFast) {
  PolicyConfig cfg;
  cfg.policy = "schedule";
  const auto make = [&cfg](const std::string& script) {
    cfg.schedule = script;
    return PolicyRegistry::global().make(cfg);
  };
  EXPECT_THROW((void)make("8"), std::invalid_argument);
  EXPECT_THROW((void)make("8:rht"), std::invalid_argument);
  EXPECT_THROW((void)make("x:rht@15"), std::invalid_argument);
  EXPECT_THROW((void)make("8:rht@0"), std::invalid_argument);
  EXPECT_THROW((void)make("8:rht@32"), std::invalid_argument);
  EXPECT_THROW((void)make("8:warp@15"), std::invalid_argument);
  EXPECT_NO_THROW((void)make("0:sd@31;;8:lowrank@15"));
}

TEST(SchedulePolicy, RoundsMustBePlainUnsignedIntegers) {
  // A negative round would wrap to 2^64 - 1 and silently never apply.
  PolicyConfig cfg;
  cfg.policy = "schedule";
  for (const char* script :
       {"-1:sd@15", "+8:sd@15", " 8:sd@15", "99999999999999999999999:sd@15",
        "8:sd@+15", "8:sd@15 "}) {
    cfg.schedule = script;
    EXPECT_THROW((void)PolicyRegistry::global().make(cfg),
                 std::invalid_argument)
        << script;
  }
}

TEST(PolicyDecision, ToStringRendersCodecAtQ) {
  EXPECT_EQ(to_string(PolicyDecision{"rht", 31}), "rht@31");
  EXPECT_EQ(to_string(PolicyDecision{"sd", 7}), "sd@7");
}

TEST(NetFeedback, PressureSaturatesAndWeighsEverySignal) {
  NetFeedback fb;
  EXPECT_DOUBLE_EQ(fb.pressure(), 0.0);  // zero packets -> zero rates
  fb.packets = 100;
  fb.trimmed = 10;
  fb.dropped = 5;
  fb.retransmits = 5;
  fb.dctcp_alpha = 0.2;
  fb.queue_depth_frac = 0.4;
  EXPECT_DOUBLE_EQ(fb.pressure(), 0.10 + 0.05 + 0.05 + 0.1 + 0.2);
  fb.trimmed = 100;
  fb.retransmits = 100;
  EXPECT_DOUBLE_EQ(fb.pressure(), 1.0);  // saturated
}

TEST(NetFeedback, SerializationRoundTripsByteExactly) {
  NetFeedback fb;
  fb.round = 42;
  fb.packets = 1000;
  fb.trimmed = 31;
  fb.dropped = 2;
  fb.retransmits = 17;
  fb.corrupt_nacks = 3;
  fb.flow_failures = 1;
  fb.wire_bytes = 123456789;
  fb.comm_s = 1.5e-3;
  fb.dctcp_alpha = 0.375;
  fb.queue_depth_frac = 0.0625;

  std::vector<std::uint8_t> blob;
  append_feedback(blob, fb);
  EXPECT_EQ(parse_feedback(blob), fb);

  // A second append lands behind the first; both truncation and trailing
  // garbage are loud.
  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 1);
  EXPECT_THROW((void)parse_feedback(truncated), std::runtime_error);
  blob.push_back(0);
  EXPECT_THROW((void)parse_feedback(blob), std::runtime_error);
}

}  // namespace
}  // namespace trimgrad::core
