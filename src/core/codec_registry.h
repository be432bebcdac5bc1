// String-keyed codec registry: compression schemes selected by name.
//
// Every registered codec maps onto a core::Scheme and rides the trimmable
// packet train in core/packet.h, so ddp::Trainer, the sweep grids and every
// CompressionPolicy can put any of them on the fabric.
//
// Mirrors net::TransportRegistry so an ExperimentSpec can validate both of
// its names against one mechanism and error with the registered lists.
#pragma once

#include <string>
#include <vector>

#include "core/packet.h"

namespace trimgrad::core {

struct CodecInfo {
  std::string name;
  Scheme scheme = Scheme::kBaseline;
  const char* summary = "";
};

class CodecRegistry {
 public:
  /// The process-wide registry with the built-in codecs.
  static const CodecRegistry& global();

  /// nullptr when `name` is not registered.
  const CodecInfo* find(const std::string& name) const;
  /// Throws std::invalid_argument listing the registered names.
  const CodecInfo& at(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// The registered name of a wire scheme ("rht" for Scheme::kRHT, ...).
  const std::string& name_of(Scheme scheme) const;

  void add(CodecInfo info);

 private:
  std::vector<CodecInfo> codecs_;
};

}  // namespace trimgrad::core
