#include "core/codec_registry.h"

#include <algorithm>
#include <stdexcept>

namespace trimgrad::core {

const CodecRegistry& CodecRegistry::global() {
  static const CodecRegistry* reg = [] {
    auto* r = new CodecRegistry();
    r->add({"baseline", Scheme::kBaseline,
            "uncompressed float32 packets (the reliable-transport baseline)"});
    r->add({"sign", Scheme::kSign,
            "1-bit sign with per-packet scale (signSGD-style)"});
    r->add({"sq", Scheme::kSQ, "stochastic b-bit uniform quantization"});
    r->add({"sd", Scheme::kSD,
            "stochastic dithering with shared-seed reconstruction"});
    r->add({"rht", Scheme::kRHT,
            "randomized Hadamard transform + 1-bit heads (the paper's codec)"});
    r->add({"sparsify", Scheme::kTopK,
            "ahead-of-time top-k sparsify, then SD heads/tails (MLT-style)"});
    r->add({"magnitude", Scheme::kMagnitude,
            "magnitude-ordered placement + SD (the paper's §2 strawman)"});
    r->add({"lowrank", Scheme::kLowRank,
            "PowerSGD factors in a rank-ordered trimmable layout"});
    return r;
  }();
  return *reg;
}

const CodecInfo* CodecRegistry::find(const std::string& name) const {
  for (const auto& c : codecs_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const CodecInfo& CodecRegistry::at(const std::string& name) const {
  if (const CodecInfo* c = find(name)) return *c;
  std::string msg = "unknown codec '" + name + "'; registered:";
  for (const auto& n : names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

std::vector<std::string> CodecRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(codecs_.size());
  for (const auto& c : codecs_) out.push_back(c.name);
  std::sort(out.begin(), out.end());
  return out;
}

const std::string& CodecRegistry::name_of(Scheme scheme) const {
  for (const auto& c : codecs_) {
    if (c.scheme == scheme) return c.name;
  }
  throw std::invalid_argument("scheme has no registered codec");
}

void CodecRegistry::add(CodecInfo info) {
  codecs_.push_back(std::move(info));
}

}  // namespace trimgrad::core
