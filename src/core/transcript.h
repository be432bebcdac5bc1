// Trim transcripts for reproducible training runs (paper §5.4).
//
// With trimming, which packets get compressed depends on live congestion,
// making every run unique. The paper's remedy: record the indices (and
// levels) of trimmed packets during a run, then replay the transcript in a
// later run where the network is reliable and the trimming effect is
// re-applied at the receiver. `TrimTranscript` is that record, with a
// line-oriented text serialization for storage, and a lookup interface the
// replay channel uses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace trimgrad::core {

/// One trim decision observed on the wire.
struct TrimEvent {
  std::uint64_t epoch = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t seq = 0;      ///< packet sequence within the message
  std::uint8_t level = 1;     ///< 1 = tail trimmed; 0xff = dropped

  friend bool operator==(const TrimEvent&, const TrimEvent&) = default;
};

class TrimTranscript {
 public:
  /// Record that packet (epoch, msg, seq) was trimmed to `level`.
  void record(std::uint64_t epoch, std::uint32_t msg_id, std::uint16_t seq,
              std::uint8_t level = 1);

  /// Level this packet was trimmed to during the recorded run, if any.
  std::optional<std::uint8_t> lookup(std::uint64_t epoch, std::uint32_t msg_id,
                                     std::uint16_t seq) const;

  std::size_t size() const noexcept { return events_.size(); }
  const std::vector<TrimEvent>& events() const noexcept { return events_; }

  /// True when at least one event was recorded for `epoch`. Replay uses
  /// this to reject an epoch the transcript never saw (a silent no-op
  /// there would mean replaying the *wrong run* without noticing).
  bool contains_epoch(std::uint64_t epoch) const noexcept {
    return epochs_.count(epoch) != 0;
  }

  /// Text form: one "epoch msg seq level" line per event.
  void save(std::ostream& os) const;
  static TrimTranscript load(std::istream& is);

  friend bool operator==(const TrimTranscript& a, const TrimTranscript& b) {
    return a.events_ == b.events_;
  }

 private:
  static std::uint64_t key(std::uint64_t epoch, std::uint32_t msg_id,
                           std::uint16_t seq) noexcept;
  std::vector<TrimEvent> events_;
  std::unordered_map<std::uint64_t, std::uint8_t> index_;
  std::unordered_set<std::uint64_t> epochs_;
};

}  // namespace trimgrad::core
