#include "ddp/experiment.h"

#include <cctype>
#include <climits>
#include <cstdint>
#include <stdexcept>

#include "core/codec_registry.h"
#include "core/number_text.h"
#include "core/threadpool.h"
#include "net/transport_registry.h"

namespace trimgrad::ddp {

namespace {

constexpr const char* kKeys[] = {
    "transport", "scheme",     "topology", "faults",       "trim",
    "drop",      "deadline",   "world",    "epochs",       "batch",
    "lr",        "seed",       "fault_seed", "threads",    "heartbeat_ms",
    "evict_after", "ckpt_every", "policy", "policy_target", "policy_min_q",
    "policy_max_q", "schedule", "capacity"};

[[noreturn]] void bad_key(const std::string& key) {
  std::string msg = "unknown ExperimentSpec key '" + key + "'; known:";
  for (const char* k : kKeys) msg += std::string(" ") + k;
  throw std::invalid_argument(msg);
}

double parse_double(const std::string& key, const std::string& value) {
  if (const auto v = core::parse_double(value)) return *v;
  throw std::invalid_argument("ExperimentSpec: bad number for '" + key +
                              "': '" + value + "'");
}

std::uint64_t parse_uint(const std::string& key, const std::string& value,
                         std::uint64_t max = UINT64_MAX) {
  if (const auto v = core::parse_uint(value, max)) return *v;
  throw std::invalid_argument("ExperimentSpec: bad integer for '" + key +
                              "': '" + value + "'");
}

}  // namespace

ExperimentSpec ExperimentSpec::parse(const std::string& text) {
  ExperimentSpec spec;
  std::size_t i = 0;
  while (i < text.size()) {
    // Tokens are separated by commas and/or whitespace.
    while (i < text.size() &&
           (text[i] == ',' || std::isspace(static_cast<unsigned char>(text[i])))) {
      ++i;
    }
    std::size_t j = i;
    while (j < text.size() && text[j] != ',' &&
           !std::isspace(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j == i) break;
    const std::string token = text.substr(i, j - i);
    i = j;

    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(
          "ExperimentSpec: expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);

    if (key == "transport") {
      spec.transport = value;
    } else if (key == "scheme") {
      spec.scheme = value;
    } else if (key == "topology") {
      spec.topology = value;
    } else if (key == "faults") {
      spec.faults = value;
    } else if (key == "trim") {
      spec.trim = parse_double(key, value);
    } else if (key == "drop") {
      spec.drop = parse_double(key, value);
    } else if (key == "deadline") {
      spec.deadline = parse_double(key, value);
    } else if (key == "world") {
      spec.world = static_cast<int>(parse_uint(key, value, INT_MAX));
    } else if (key == "epochs") {
      spec.epochs = parse_uint(key, value);
    } else if (key == "batch") {
      spec.batch = parse_uint(key, value);
    } else if (key == "lr") {
      spec.lr = parse_double(key, value);
    } else if (key == "seed") {
      spec.seed = parse_uint(key, value);
    } else if (key == "fault_seed") {
      spec.fault_seed = parse_uint(key, value);
    } else if (key == "threads") {
      spec.threads = parse_uint(key, value);
    } else if (key == "heartbeat_ms") {
      spec.heartbeat_ms = parse_double(key, value);
    } else if (key == "evict_after") {
      spec.evict_after = parse_uint(key, value);
    } else if (key == "ckpt_every") {
      spec.ckpt_every = parse_uint(key, value);
    } else if (key == "policy") {
      spec.policy = value;
    } else if (key == "policy_target") {
      spec.policy_target = parse_double(key, value);
    } else if (key == "policy_min_q") {
      spec.policy_min_q = parse_uint(key, value);
    } else if (key == "policy_max_q") {
      spec.policy_max_q = parse_uint(key, value);
    } else if (key == "schedule") {
      spec.schedule = value;
    } else if (key == "capacity") {
      spec.capacity = parse_uint(key, value);
    } else {
      bad_key(key);
    }
  }
  spec.validate();
  return spec;
}

std::string ExperimentSpec::serialize() const {
  std::string out;
  out += "transport=" + transport;
  out += ",scheme=" + scheme;
  out += ",topology=" + topology;
  out += ",faults=" + faults;
  out += ",trim=" + core::format_double(trim);
  out += ",drop=" + core::format_double(drop);
  out += ",deadline=" + core::format_double(deadline);
  out += ",world=" + std::to_string(world);
  out += ",epochs=" + std::to_string(epochs);
  out += ",batch=" + std::to_string(batch);
  out += ",lr=" + core::format_double(lr);
  out += ",seed=" + std::to_string(seed);
  out += ",fault_seed=" + std::to_string(fault_seed);
  out += ",threads=" + std::to_string(threads);
  out += ",heartbeat_ms=" + core::format_double(heartbeat_ms);
  out += ",evict_after=" + std::to_string(evict_after);
  out += ",ckpt_every=" + std::to_string(ckpt_every);
  out += ",policy=" + policy;
  out += ",policy_target=" + core::format_double(policy_target);
  out += ",policy_min_q=" + std::to_string(policy_min_q);
  out += ",policy_max_q=" + std::to_string(policy_max_q);
  out += ",schedule=" + schedule;
  out += ",capacity=" + std::to_string(capacity);
  return out;
}

std::string ExperimentSpec::label() const {
  std::string out = "transport=" + transport + ",scheme=" + scheme +
                    ",trim=" + core::format_double(trim);
  if (policy != "fixed") out += ",policy=" + policy;
  return out;
}

bool ExperimentSpec::faults_is_file() const noexcept {
  return faults.rfind("file:", 0) == 0;
}

std::string ExperimentSpec::faults_path() const {
  return faults_is_file() ? faults.substr(5) : std::string{};
}

void ExperimentSpec::validate() const {
  net::TransportRegistry::global().at(transport);  // throws, lists names
  core::CodecRegistry::global().at(scheme);        // throws, lists names
  if (topology != "inject" && topology != "fabric") {
    throw std::invalid_argument("ExperimentSpec: unknown topology '" +
                                topology + "'; known: fabric inject");
  }
  if (faults != "none" && faults != "corrupt" && faults != "flap" &&
      faults != "chaos" && faults != "elastic" && !faults_is_file()) {
    throw std::invalid_argument(
        "ExperimentSpec: unknown fault script '" + faults +
        "'; known: chaos corrupt elastic flap none file:<path>");
  }
  if (faults_is_file() && faults_path().empty()) {
    throw std::invalid_argument(
        "ExperimentSpec: faults=file: needs a path (faults=file:<path>)");
  }
  if (world < 2) {
    throw std::invalid_argument("ExperimentSpec: world must be >= 2");
  }
  if (batch == 0 || epochs == 0) {
    throw std::invalid_argument(
        "ExperimentSpec: batch and epochs must be positive");
  }
  if (lr <= 0) {
    throw std::invalid_argument("ExperimentSpec: lr must be positive");
  }
  if (deadline < 0) {
    throw std::invalid_argument(
        "ExperimentSpec: deadline must be >= 0 (0 disables it)");
  }
  if (threads > core::ThreadPool::kMaxThreads) {
    throw std::invalid_argument(
        "ExperimentSpec: threads must be in [0, " +
        std::to_string(core::ThreadPool::kMaxThreads) +
        "] (0 keeps TRIMGRAD_THREADS or the hardware count)");
  }
  if (trim < 0 || trim > 1 || drop < 0 || drop > 1) {
    throw std::invalid_argument(
        "ExperimentSpec: trim/drop must be probabilities in [0, 1]");
  }
  if (heartbeat_ms < 0 || heartbeat_ms > 10000) {
    throw std::invalid_argument(
        "ExperimentSpec: heartbeat_ms must be in [0, 10000] "
        "(0 disables membership)");
  }
  if (evict_after < 1 || evict_after > 1024) {
    throw std::invalid_argument(
        "ExperimentSpec: evict_after must be in [1, 1024]");
  }
  if (ckpt_every > (std::uint64_t{1} << 20)) {
    throw std::invalid_argument(
        "ExperimentSpec: ckpt_every must be in [0, 1048576] "
        "(0 disables checkpoints)");
  }
  if (faults == "elastic" && heartbeat_ms == 0) {
    throw std::invalid_argument(
        "ExperimentSpec: faults=elastic needs heartbeat_ms > 0 "
        "(without a detector nothing heals)");
  }
  if (policy_min_q < 1 || policy_max_q > 31 || policy_min_q > policy_max_q) {
    throw std::invalid_argument(
        "ExperimentSpec: need 1 <= policy_min_q <= policy_max_q <= 31");
  }
  if (policy_target <= 0 || policy_target >= 1) {
    throw std::invalid_argument(
        "ExperimentSpec: policy_target must be in (0, 1)");
  }
  // Fail fast on unregistered policy names (the error lists what is
  // registered) and on schedule scripts naming unregistered codecs.
  core::PolicyRegistry::global().make(policy_config());
}

TrainerConfig ExperimentSpec::trainer_config() const {
  TrainerConfig cfg;
  cfg.world = world;
  cfg.global_batch = batch;
  cfg.epochs = epochs;
  cfg.sgd.lr = static_cast<float>(lr);
  cfg.codec.scheme = core::CodecRegistry::global().at(scheme).scheme;
  cfg.fault_seed = fault_seed;
  cfg.policy = policy_config();
  return cfg;
}

core::PolicyConfig ExperimentSpec::policy_config() const {
  core::PolicyConfig pc;
  pc.policy = policy;
  pc.codec = scheme;
  pc.aimd.target_trim = policy_target;
  pc.aimd.min_q = static_cast<unsigned>(policy_min_q);
  pc.aimd.max_q = static_cast<unsigned>(policy_max_q);
  pc.aimd.initial_q = static_cast<unsigned>(policy_max_q);
  pc.schedule = schedule;
  return pc;
}

collective::InjectChannel::Config ExperimentSpec::inject_channel_config()
    const {
  if (transport != "trim" && transport != "reliable") {
    throw std::invalid_argument(
        "ExperimentSpec: transport '" + transport +
        "' needs topology=fabric (the inject channel models only the "
        "trim/reliable pair)");
  }
  collective::InjectChannel::Config cfg;
  cfg.world = world;
  cfg.injector.trim_rate = trim;
  cfg.injector.drop_rate = drop;
  cfg.injector.seed = seed;
  cfg.reliable = transport == "reliable";
  cfg.capacity_bytes = capacity;
  return cfg;
}

collective::SimChannel::Config ExperimentSpec::sim_channel_config() const {
  collective::SimChannel::Config cfg;
  cfg.transport = transport;
  cfg.round_deadline = deadline;
  return cfg;
}

MembershipConfig ExperimentSpec::membership_config() const {
  MembershipConfig cfg;
  cfg.heartbeat_s = heartbeat_ms * 1e-3;
  cfg.evict_after = static_cast<unsigned>(evict_after);
  cfg.ckpt_every = static_cast<unsigned>(ckpt_every);
  return cfg;
}

void ExperimentSpec::apply_threads() const {
  if (threads > 0) {
    core::ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
  }
}

}  // namespace trimgrad::ddp
