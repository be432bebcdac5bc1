// Timing from outside the program: a Channel decorator, an in-memory span
// log, and a round driver that makes the same public calls as
// ddp::DdpTrainer::run_epoch with a span around each stage.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "collective/allreduce.h"
#include "collective/channel.h"
#include "core/policy.h"
#include "ddp/trainer.h"
#include "ml/data.h"
#include "ml/model.h"
#include "ml/optim.h"
#include "net/sim.h"

namespace perfbench {

using namespace trimgrad;
using Clock = std::chrono::steady_clock;

/// Seconds since a fixed process-wide origin.
double now_s();

/// One closed interval. Spans of one round share (cell, round); `parent` is
/// the index of the enclosing span in the log, −1 for a root.
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  std::int32_t parent = -1;
  std::uint32_t cell = 0;
  std::uint32_t round = 0;
};

/// Spans kept in memory and written out once, at exit.
class SpanLog {
 public:
  std::int32_t add(const Span& s);
  Span& at(std::int32_t i) { return spans_.at(static_cast<std::size_t>(i)); }
  /// Chrome trace-event JSON ("X" events; parent/cell/round in args).
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Forwards every call to the wrapped channel, take_feedback() untouched,
/// and observes it: delivery counts always, the time of each take_feedback()
/// (the trainer drains feedback once per round, right after the collective,
/// so these mark round boundaries), and — only with a span log — a span per
/// transfer() plus the simulator events it executed.
class TimedChannel : public collective::Channel {
 public:
  TimedChannel(collective::Channel& inner, const net::Simulator* sim,
               SpanLog* spans)
      : inner_(inner), sim_(sim), spans_(spans) {}

  std::vector<collective::Delivery> transfer(
      std::vector<collective::TransferRequest> batch) override;
  int world_size() const override { return inner_.world_size(); }
  core::NetFeedback take_feedback() override;

  /// Parent span and (cell, round) for the next transfer spans.
  void set_round(std::int32_t parent, std::uint32_t cell,
                 std::uint32_t round) noexcept {
    parent_ = parent;
    cell_ = cell;
    round_ = round;
  }

  std::vector<Clock::time_point> feedback_times;
  std::uint64_t transfers = 0;         ///< deliveries attempted
  std::uint64_t failed_transfers = 0;  ///< deliveries whose flow failed
  std::uint64_t coords_sent = 0;       ///< coordinates in sent messages
  // Traced only: accumulated since the caller last zeroed them.
  double transfer_s = 0;
  std::uint64_t events = 0;

 private:
  collective::Channel& inner_;
  const net::Simulator* sim_;
  SpanLog* spans_;
  std::int32_t parent_ = -1;
  std::uint32_t cell_ = 0;
  std::uint32_t round_ = 0;
};

/// What a cell produced: the inputs of the output digest.
struct CellOutcome {
  std::vector<double> epoch_loss;
  std::vector<core::PolicyDecision> decisions;
  std::vector<float> rank0_params;
  double top1 = -1;  ///< last evaluation; −1 without evaluation
  std::uint64_t digest() const;
};

/// FNV-1a over raw bytes, chained from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// One traced round, in seconds and counts.
struct RoundSample {
  double round_s = 0;
  double policy_s = 0;
  double batch_s = 0;
  double fwd_bwd_s = 0;
  double allreduce_s = 0;  ///< AllReducer::run
  double encode_s = 0;     ///< from AllReduceStats
  double decode_s = 0;
  double transfer_s = 0;   ///< Channel::transfer, inside allreduce_s
  double feedback_s = 0;
  double optim_s = 0;
  std::uint64_t encode_coords = 0;
  std::uint64_t decode_coords = 0;
  std::uint64_t events = 0;
  core::Scheme scheme = core::Scheme::kBaseline;
  core::NetFeedback feedback{};
  double loss = 0;
  /// Stage spans' summed durations over the round span's.
  double covered() const noexcept {
    return (policy_s + batch_s + fwd_bwd_s + allreduce_s + feedback_s +
            optim_s) /
           round_s;
  }
};

/// The round driver: the public calls ddp::DdpTrainer makes for one cell
/// (Batcher::worker_shard, SynthCifar::train_batch, zero_grads/forward/
/// backward/flat_grads per rank under core::parallel_for, AllReducer::run,
/// SgdMomentum::step_flat, the policy's decide and AllReducer::set_codec),
/// each stage under a span. The trajectory it produces is bit-identical to
/// DdpTrainer's for the configurations the workloads use (no membership,
/// error feedback, straggler or buckets) — the benchmark checks that.
class TracedTrainer {
 public:
  TracedTrainer(const ml::SynthCifar& data, TimedChannel& channel,
                const ddp::TrainerConfig& cfg,
                const ddp::DdpTrainer::ModelFactory& factory, SpanLog& log,
                std::uint32_t cell);

  /// One epoch; appends a RoundSample per round to `rounds` and the epoch's
  /// mean loss to `out.epoch_loss`.
  void run_epoch(std::size_t epoch, std::vector<RoundSample>& rounds,
                 CellOutcome& out);
  /// Evaluate rank 0 on the test set, as DdpTrainer::evaluate does; returns
  /// top-1 accuracy and records an "ml.eval" span.
  double evaluate();

  const std::vector<core::PolicyDecision>& decisions() const noexcept {
    return decisions_;
  }
  std::vector<float> rank0_params() const { return replicas_[0]->flat_params(); }
  std::uint64_t policy_switches() const noexcept { return switches_; }

 private:
  const ml::SynthCifar& data_;
  TimedChannel& channel_;
  ddp::TrainerConfig cfg_;
  SpanLog& log_;
  std::uint32_t cell_;
  collective::AllReducer reducer_;
  ml::Batcher batcher_;
  std::vector<std::unique_ptr<ml::Sequential>> replicas_;
  std::vector<std::unique_ptr<ml::SgdMomentum>> optims_;
  core::Xoshiro256 augment_rng_;
  std::unique_ptr<core::CompressionPolicy> policy_;
  core::PolicyDecision active_;
  core::NetFeedback last_fb_{};
  std::vector<core::PolicyDecision> decisions_;
  std::uint64_t switches_ = 0;
};

}  // namespace perfbench
