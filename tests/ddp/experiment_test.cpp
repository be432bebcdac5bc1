// ExperimentSpec: the one declarative description of a run. These tests pin
// the contract the benches, examples, and CI smoke gates rely on: parse ->
// serialize -> parse is the identity, every value round-trips bit-exactly,
// and unknown names fail fast with the full list of registered alternatives.
#include "ddp/experiment.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "core/codec_registry.h"
#include "core/policy.h"
#include "core/threadpool.h"

namespace trimgrad::ddp {
namespace {

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentSpec, DefaultsRoundTripThroughSerialize) {
  const ExperimentSpec spec;
  const ExperimentSpec back = ExperimentSpec::parse(spec.serialize());
  EXPECT_EQ(spec, back);
  EXPECT_EQ(spec.serialize(), back.serialize());
}

TEST(ExperimentSpec, EveryKeyRoundTripsBitExactly) {
  ExperimentSpec spec;
  spec.transport = "pull";
  spec.scheme = "sq";
  spec.topology = "fabric";
  spec.faults = "chaos";
  spec.trim = 0.125;
  spec.drop = 1e-3;
  spec.deadline = 2.5e-3;
  spec.world = 8;
  spec.epochs = 3;
  spec.batch = 96;
  spec.lr = 0.007;
  spec.seed = 99;
  spec.fault_seed = 7;
  spec.threads = 2;
  spec.heartbeat_ms = 0.75;
  spec.evict_after = 5;
  spec.ckpt_every = 16;
  spec.policy = "aimd-trim";
  spec.policy_target = 0.125;
  spec.policy_min_q = 5;
  spec.policy_max_q = 23;
  spec.schedule = "0:rht@31;8:sd@15";
  spec.capacity = 65536;
  const ExperimentSpec back = ExperimentSpec::parse(spec.serialize());
  EXPECT_EQ(spec, back);
  // Doubles survive a second trip too (shortest-round-trip formatting).
  EXPECT_EQ(back.serialize(), ExperimentSpec::parse(back.serialize()).serialize());
}

TEST(ExperimentSpec, PartialSpecKeepsDefaultsForUnsetKeys) {
  const ExperimentSpec spec = ExperimentSpec::parse("scheme=sd,trim=0.5");
  EXPECT_EQ(spec.scheme, "sd");
  EXPECT_DOUBLE_EQ(spec.trim, 0.5);
  const ExperimentSpec defaults;
  EXPECT_EQ(spec.transport, defaults.transport);
  EXPECT_EQ(spec.world, defaults.world);
  EXPECT_EQ(spec.seed, defaults.seed);
}

TEST(ExperimentSpec, WhitespaceAndCommaSeparatorsBothParse) {
  const ExperimentSpec a = ExperimentSpec::parse("transport=pull,scheme=sq");
  const ExperimentSpec b =
      ExperimentSpec::parse("transport=pull scheme=sq");
  const ExperimentSpec c =
      ExperimentSpec::parse("  transport=pull\n\tscheme=sq  ");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ExperimentSpec, LabelNamesTransportSchemeAndTrim) {
  ExperimentSpec spec;
  spec.transport = "pull";
  spec.scheme = "rht";
  spec.trim = 0.2;
  EXPECT_EQ(spec.label(), "transport=pull,scheme=rht,trim=0.2");
}

TEST(ExperimentSpec, UnknownTransportListsRegisteredNames) {
  const std::string msg = thrown_message(
      [] { (void)ExperimentSpec::parse("transport=tcp"); });
  EXPECT_NE(msg.find("tcp"), std::string::npos);
  EXPECT_NE(msg.find("ecn"), std::string::npos);
  EXPECT_NE(msg.find("pull"), std::string::npos);
  EXPECT_NE(msg.find("reliable"), std::string::npos);
  EXPECT_NE(msg.find("trim"), std::string::npos);
}

TEST(ExperimentSpec, UnknownSchemeListsRegisteredNames) {
  const std::string msg =
      thrown_message([] { (void)ExperimentSpec::parse("scheme=topk"); });
  EXPECT_NE(msg.find("topk"), std::string::npos);
  EXPECT_NE(msg.find("baseline"), std::string::npos);
  EXPECT_NE(msg.find("rht"), std::string::npos);
  EXPECT_NE(msg.find("lowrank"), std::string::npos);
}

TEST(ExperimentSpec, RemovedSideCodecIsAnUnknownCodec) {
  // EDEN was a registered side codec with no packet train; it is gone, so
  // validate() must reject it like any other unregistered name.
  ExperimentSpec spec;
  spec.scheme = "eden";
  const std::string msg = thrown_message([&] { spec.validate(); });
  EXPECT_NE(msg.find("unknown codec 'eden'"), std::string::npos) << msg;
  for (const auto& name : core::CodecRegistry::global().names())
    EXPECT_NE(msg.find(" " + name), std::string::npos) << name;
}

TEST(ExperimentSpec, RetiredCodecsFailWithTheRegisteredNames) {
  // sparsify and magnitude are retired: naming one as the scheme or in a
  // schedule entry fails with the registry's list of what is registered.
  for (const char* text :
       {"scheme=sparsify", "scheme=magnitude",
        "policy=schedule,schedule=0:rht@31;8:sparsify@15"}) {
    const std::string msg =
        thrown_message([text] { (void)ExperimentSpec::parse(text); });
    EXPECT_NE(msg.find("registered: baseline lowrank rht sd sign sq"),
              std::string::npos)
        << text << ": " << msg;
  }
}

TEST(ExperimentSpec, UnknownKeyListsKnownKeys) {
  const std::string msg =
      thrown_message([] { (void)ExperimentSpec::parse("window=32"); });
  EXPECT_NE(msg.find("window"), std::string::npos);
  EXPECT_NE(msg.find("transport"), std::string::npos);
  EXPECT_NE(msg.find("scheme"), std::string::npos);
  EXPECT_NE(msg.find("trim"), std::string::npos);
}

TEST(ExperimentSpec, MalformedValuesAreRejected) {
  EXPECT_THROW((void)ExperimentSpec::parse("trim=lots"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("world=4.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("scheme"), std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("trim=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("world=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("topology=ring"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("faults=meteor"),
               std::invalid_argument);
}

TEST(ExperimentSpec, NumbersOutsideTheirKeysTypeAreRejected) {
  // Each of these used to parse: a sign wrapped an unsigned key, an
  // overflow saturated, world was cast to int, and NaN passed every range
  // check because comparisons with it are false.
  for (const char* text :
       {"threads=-1", "epochs=-1", "seed=99999999999999999999999",
        "world=4294967298", "trim=nan", "policy_target=nan", "lr=nan",
        "drop=inf", "heartbeat_ms=nan", "batch=+64", "deadline=1e400"}) {
    const std::string msg =
        thrown_message([text] { (void)ExperimentSpec::parse(text); });
    EXPECT_NE(msg.find("ExperimentSpec: bad"), std::string::npos)
        << text << ": " << msg;
  }
}

TEST(ExperimentSpec, ThreadsLrAndDeadlineAreRangeChecked) {
  // Only parse and validate run here: a pool is never built from these.
  const std::string max = std::to_string(core::ThreadPool::kMaxThreads);
  EXPECT_EQ(ExperimentSpec::parse("threads=" + max).threads,
            core::ThreadPool::kMaxThreads);
  const std::string t = thrown_message(
      [&max] { (void)ExperimentSpec::parse("threads=" + max + "1"); });
  EXPECT_NE(t.find("threads must be in [0, " + max + "]"), std::string::npos)
      << t;
  for (const char* text : {"lr=-1", "lr=0", "deadline=-3"}) {
    EXPECT_THROW((void)ExperimentSpec::parse(text), std::invalid_argument)
        << text;
  }
  EXPECT_NO_THROW((void)ExperimentSpec::parse("deadline=0,lr=1e-9"));
}

TEST(ExperimentSpec, TrainerConfigCarriesTheNamedCodec) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      "scheme=sq,world=8,epochs=3,batch=96,lr=0.007,fault_seed=7");
  const auto tcfg = spec.trainer_config();
  EXPECT_EQ(tcfg.codec.scheme, core::Scheme::kSQ);
  EXPECT_EQ(tcfg.world, 8);
  EXPECT_EQ(tcfg.global_batch, 96u);
  EXPECT_EQ(tcfg.epochs, 3u);
  EXPECT_FLOAT_EQ(tcfg.sgd.lr, 0.007f);
}

TEST(ExperimentSpec, NonPacketTrainCodecIsRejectedForTraining) {
  // eden had no trimmable packet train and is no longer registered, so a
  // DDP run cannot be configured with it; the spec must say so by name.
  const std::string msg = thrown_message([] {
    (void)ExperimentSpec::parse("scheme=eden").trainer_config();
  });
  EXPECT_NE(msg.find("eden"), std::string::npos);
}

TEST(ExperimentSpec, EveryRegisteredCodecCanTrain) {
  // Every registry entry rides the trimmable packet train: it projects onto
  // a TrainerConfig carrying its own scheme and drives a fixed policy.
  const auto& registry = core::CodecRegistry::global();
  for (const auto& name : registry.names()) {
    const ExperimentSpec spec = ExperimentSpec::parse("scheme=" + name);
    const TrainerConfig tcfg = spec.trainer_config();
    EXPECT_EQ(tcfg.codec.scheme, registry.at(name).scheme) << name;
    EXPECT_EQ(registry.name_of(tcfg.codec.scheme), name);
    core::PolicyConfig pc = tcfg.policy;
    pc.policy = "fixed";
    const auto policy = core::PolicyRegistry::global().make(pc);
    EXPECT_EQ(policy->decide(0, {}).codec, name);
  }
}

TEST(ExperimentSpec, InjectChannelConfigMapsTransportNames) {
  const auto trim = ExperimentSpec::parse("transport=trim,trim=0.3,drop=0.01")
                        .inject_channel_config();
  EXPECT_FALSE(trim.reliable);
  EXPECT_DOUBLE_EQ(trim.injector.trim_rate, 0.3);
  EXPECT_DOUBLE_EQ(trim.injector.drop_rate, 0.01);
  const auto rel = ExperimentSpec::parse("transport=reliable")
                       .inject_channel_config();
  EXPECT_TRUE(rel.reliable);
  // pull/ecn are fabric transports; the injected-loss topology can't host
  // them and must refuse rather than silently fall back.
  const std::string msg = thrown_message([] {
    (void)ExperimentSpec::parse("transport=pull").inject_channel_config();
  });
  EXPECT_NE(msg.find("pull"), std::string::npos);
}

TEST(ExperimentSpec, SimChannelConfigSelectsTransportByName) {
  const ExperimentSpec spec =
      ExperimentSpec::parse("transport=ecn,topology=fabric,deadline=0.01");
  const auto ccfg = spec.sim_channel_config();
  EXPECT_EQ(ccfg.transport, "ecn");
  EXPECT_DOUBLE_EQ(ccfg.round_deadline, 0.01);
}

TEST(ExperimentSpec, MembershipKeysRoundTripAndProject) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      "faults=elastic,heartbeat_ms=0.5,evict_after=2,ckpt_every=4");
  EXPECT_DOUBLE_EQ(spec.heartbeat_ms, 0.5);
  EXPECT_EQ(spec.evict_after, 2u);
  EXPECT_EQ(spec.ckpt_every, 4u);
  EXPECT_EQ(spec, ExperimentSpec::parse(spec.serialize()));

  const MembershipConfig mcfg = spec.membership_config();
  EXPECT_DOUBLE_EQ(mcfg.heartbeat_s, 0.5e-3);
  EXPECT_EQ(mcfg.evict_after, 2u);
  EXPECT_EQ(mcfg.ckpt_every, 4u);
}

TEST(ExperimentSpec, MembershipKeysAreRangeChecked) {
  // Out-of-range values name the valid range in the error.
  const std::string hb = thrown_message(
      [] { (void)ExperimentSpec::parse("heartbeat_ms=-1"); });
  EXPECT_NE(hb.find("[0, 10000]"), std::string::npos) << hb;
  EXPECT_THROW((void)ExperimentSpec::parse("heartbeat_ms=10001"),
               std::invalid_argument);

  const std::string ev = thrown_message(
      [] { (void)ExperimentSpec::parse("evict_after=0"); });
  EXPECT_NE(ev.find("[1, 1024]"), std::string::npos) << ev;
  EXPECT_THROW((void)ExperimentSpec::parse("evict_after=2000"),
               std::invalid_argument);

  const std::string ck = thrown_message(
      [] { (void)ExperimentSpec::parse("ckpt_every=1048577"); });
  EXPECT_NE(ck.find("[0, 1048576]"), std::string::npos) << ck;

  // The elastic fault script is meaningless without a detector.
  EXPECT_THROW((void)ExperimentSpec::parse("faults=elastic"),
               std::invalid_argument);
}

TEST(ExperimentSpec, PolicyKeysRoundTripAndProject) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      "policy=aimd-trim,policy_target=0.1,policy_min_q=5,policy_max_q=23,"
      "capacity=4096");
  EXPECT_EQ(spec.policy, "aimd-trim");
  EXPECT_DOUBLE_EQ(spec.policy_target, 0.1);
  EXPECT_EQ(spec.policy_min_q, 5u);
  EXPECT_EQ(spec.policy_max_q, 23u);
  EXPECT_EQ(spec.capacity, 4096u);
  EXPECT_EQ(spec, ExperimentSpec::parse(spec.serialize()));

  const core::PolicyConfig pc = spec.policy_config();
  EXPECT_EQ(pc.policy, "aimd-trim");
  EXPECT_EQ(pc.codec, spec.scheme);
  EXPECT_DOUBLE_EQ(pc.aimd.target_trim, 0.1);
  EXPECT_EQ(pc.aimd.min_q, 5u);
  EXPECT_EQ(pc.aimd.max_q, 23u);
  EXPECT_EQ(pc.aimd.initial_q, 23u);

  // trainer_config() embeds the policy so benches get it for free.
  EXPECT_EQ(spec.trainer_config().policy.policy, "aimd-trim");
  // capacity reaches the inject channel as its per-batch byte budget.
  EXPECT_EQ(spec.inject_channel_config().capacity_bytes, 4096u);
}

TEST(ExperimentSpec, PolicyLabelMarksNonFixedCells) {
  ExperimentSpec spec;
  EXPECT_EQ(spec.label().find("policy="), std::string::npos);
  spec.policy = "aimd-trim";
  EXPECT_NE(spec.label().find("policy=aimd-trim"), std::string::npos);
}

TEST(ExperimentSpec, UnknownPolicyListsRegisteredNames) {
  const std::string msg = thrown_message(
      [] { (void)ExperimentSpec::parse("policy=oracle"); });
  EXPECT_NE(msg.find("oracle"), std::string::npos) << msg;
  EXPECT_NE(msg.find("aimd-trim"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fixed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("schedule"), std::string::npos) << msg;
}

TEST(ExperimentSpec, PolicyKeysAreRangeChecked) {
  const std::string q = thrown_message(
      [] { (void)ExperimentSpec::parse("policy_min_q=0"); });
  EXPECT_NE(q.find("policy_min_q"), std::string::npos) << q;
  EXPECT_THROW((void)ExperimentSpec::parse("policy_max_q=32"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)ExperimentSpec::parse("policy_min_q=20,policy_max_q=10"),
      std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("policy_target=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::parse("policy_target=1"),
               std::invalid_argument);
  // A schedule naming an unregistered codec fails at validate() time.
  EXPECT_THROW(
      (void)ExperimentSpec::parse("policy=schedule,schedule=0:warp@31"),
      std::invalid_argument);
}

}  // namespace
}  // namespace trimgrad::ddp
