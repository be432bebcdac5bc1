// Distributed data-parallel trainer — the PyTorch-DDP substitute that the
// figure reproductions drive.
//
// W model replicas train on worker shards of each global batch. After the
// backward pass, flat gradient buckets (the analogue of DDP's 25 MB fusion
// buckets the paper hooks, §3.2) go through a trimmable-codec all-reduce
// over the configured Channel. The simulated wall clock for a round is
//
//   round = compute + encode + comm + decode
//
// where compute is the modeled accelerator step (`compute_round_s`, scaled
// for an injected straggler), encode/decode charge calibrated
// per-coordinate costs for every coordinate coded (the paper's Fig. 5
// "encoding overhead"; see ddp/clock_model.h), and comm is the channel's simulated transfer time
// (trim/drop penalties for the reliable baseline included). Per-epoch
// records give accuracy vs simulated time — exactly the axes of Figures 3
// and 4.
//
// The W replicas' forward/backward passes run concurrently on the global
// ThreadPool (see core/threadpool.h): batches are assembled sequentially
// first (one augmentation RNG stream, consumed in rank order, identical to
// the fully sequential trainer), then each rank's compute runs on the pool
// into per-rank slots, with the loss reduction in rank order afterwards —
// so one round produces bit-identical losses, gradients, and updated
// weights for any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "collective/allreduce.h"
#include "core/policy.h"
#include "ddp/checkpoint.h"
#include "ml/data.h"
#include "ml/loss.h"
#include "ml/model.h"
#include "ml/optim.h"

namespace trimgrad::net {
class InvariantMonitor;
}  // namespace trimgrad::net

namespace trimgrad::ddp {

class Membership;

struct TrainerConfig {
  int world = 4;
  std::size_t global_batch = 64;  ///< paper §4.1: batch size 64
  std::size_t epochs = 20;
  ml::SgdConfig sgd{};            ///< defaults match §4.1
  core::CodecConfig codec{};
  collective::Algorithm algo = collective::Algorithm::kPs;
  /// Gradient bucket size in floats (25 MB / 4 B ≈ 6.5 M in PyTorch; scaled
  /// to model size here). 0 = single bucket.
  std::size_t bucket_floats = 0;
  std::uint64_t shuffle_seed = 99;
  std::uint64_t augment_seed = 17;
  /// Modeled fwd+bwd time per round (see ddp/clock_model.h).
  double compute_round_s = 10e-3;
  std::size_t eval_every = 1;  ///< epochs between test-set evaluations
  std::size_t eval_batch = 256;
  /// Straggler injection (net::StragglerSchedule): when > 1, one
  /// seed-chosen rank per epoch has its compute time scaled by this factor
  /// — the host-pause half of the fault plane.
  double straggler_factor = 1.0;
  std::uint64_t fault_seed = 1;  ///< keys the per-epoch straggler choice
  /// Error feedback: accumulate each rank's local quantization error
  /// (sent − decode(encode(sent))) into a residual added to the next
  /// round's gradient. The residual is part of a rank's checkpointed state.
  bool error_feedback = false;
  /// Per-round compression control plane (core/policy.h). The policy's base
  /// codec and tail depth are always re-seeded from `codec` at construction
  /// (whatever `policy.codec`/`policy.q_bits` say), so the default "fixed"
  /// policy reproduces the pinned-codec path bit-exactly.
  core::PolicyConfig policy{};
};

/// Per-round time breakdown (Fig. 5's bars).
struct RoundBreakdown {
  double compute_s = 0;
  double encode_s = 0;
  double comm_s = 0;
  double decode_s = 0;
  double total() const noexcept {
    return compute_s + encode_s + comm_s + decode_s;
  }
};

struct EpochRecord {
  std::size_t epoch = 0;
  double sim_time_s = 0;  ///< cumulative simulated wall clock
  double train_loss = 0;
  double top1 = -1;       ///< −1 when the epoch was not evaluated
  double top5 = -1;
  RoundBreakdown mean_round;
  std::size_t trimmed_packets = 0;
  std::size_t dropped_packets = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t wire_bytes = 0;
  /// Max L∞ distance between rank-0 and other replicas' parameters —
  /// quantifies the drift lossy broadcast introduces.
  double replica_divergence = 0;
  /// Fault-plane visibility: contributions lost to failed flows and rounds
  /// that proceeded degraded (collective::AllReduceStats, summed), plus
  /// which rank (if any) was the injected straggler this epoch.
  std::size_t missing_ranks = 0;
  std::size_t degraded_rounds = 0;
  int straggler_rank = -1;  ///< −1 when no straggler was injected
  /// Elastic membership (ddp/membership.h): ranks re-admitted this epoch
  /// and the view version in force when the epoch ended. 0 recovered with
  /// a stable view is the answer to "did missing_ranks ever heal": with a
  /// membership attached, recovery is now visible per epoch.
  std::size_t recovered_ranks = 0;
  std::uint64_t view_version = 0;
};

class DdpTrainer {
 public:
  using ModelFactory = std::function<std::unique_ptr<ml::Sequential>()>;

  DdpTrainer(const ml::SynthCifar& data, collective::Channel& channel,
             TrainerConfig cfg, const ModelFactory& factory);

  /// Run the full schedule; one record per epoch.
  std::vector<EpochRecord> train();

  /// Run a single epoch (exposed for fine-grained benches/tests).
  EpochRecord run_epoch(std::size_t epoch);

  /// Evaluate rank-0's replica on the test set.
  void evaluate(EpochRecord& rec);

  double sim_time() const noexcept { return sim_time_s_; }
  ml::Sequential& replica(int rank) { return *replicas_.at(rank); }

  /// Attach the elastic control plane (nullptr detaches). Each round then
  /// starts with a heartbeat poll; evicted ranks stop computing, the
  /// collective runs over the membership's view (the reducer is pointed at
  /// it here — point the channel at it separately via SimChannel::set_view),
  /// checkpoints are stored every cfg ckpt_every rounds, and recovered
  /// ranks are rejoined at round boundaries. The membership must outlive
  /// the trainer while attached.
  void attach_membership(Membership* membership);

  /// Attach an invariant monitor (net/invariants.h); nullptr detaches. The
  /// trainer reports each epoch's cumulative simulated time so the monitor
  /// can assert the clock advances every epoch. The monitor must outlive
  /// the trainer while attached.
  void set_invariant_monitor(net::InvariantMonitor* monitor) noexcept {
    monitor_ = monitor;
  }

  /// Capture rank's full training state (see ddp/checkpoint.h).
  Checkpoint make_checkpoint(int rank, std::size_t epoch,
                             std::uint64_t round) const;
  /// Apply a checkpoint to rank: parameters, optimizer, residual. (The
  /// augment RNG cursor and the compression control plane are whole-trainer
  /// state, restored only by a full restart via restore_control_plane, not
  /// a single-rank rejoin — the live trainer's controller keeps steering.)
  void restore_rank(int rank, const Checkpoint& ck);

  /// The decision the policy made for each round run so far, in order.
  /// Comparing two runs' decision sequences is the cheap digest for "the
  /// control trajectory is bit-identical across TRIMGRAD_THREADS".
  const std::vector<core::PolicyDecision>& decisions() const noexcept {
    return decisions_;
  }
  /// The feedback snapshot the next round's decision will see.
  const core::NetFeedback& last_feedback() const noexcept { return last_fb_; }
  /// The codec configuration currently on the wire.
  const core::CodecConfig& active_codec() const noexcept {
    return active_codec_;
  }

  /// Serialized control-plane state (policy controller + last feedback) —
  /// what make_checkpoint embeds as Checkpoint::policy_state.
  std::vector<std::uint8_t> policy_state_blob() const;
  /// Full-restart restore at a round boundary: re-seats the policy
  /// controller, the feedback snapshot, and the augment-RNG cursor from a
  /// checkpoint, so the restarted trainer replays the same decision
  /// sequence bit-identically. Throws std::runtime_error on a malformed
  /// blob; a v1 checkpoint (empty blob) restores only the RNG cursor.
  void restore_control_plane(const Checkpoint& ck);

  const std::vector<float>& residual(int rank) const {
    return residuals_.at(rank);
  }

 private:
  std::vector<std::vector<float>> all_reduce_buckets(
      const std::vector<std::vector<float>>& grads, std::size_t epoch,
      std::uint32_t round, EpochRecord& rec, RoundBreakdown& rb);
  void apply_error_feedback(std::vector<std::vector<float>>& grads,
                            const std::vector<std::uint8_t>& live_mask,
                            std::size_t epoch, std::uint32_t round);
  void try_rejoin(int rank, std::uint64_t round, EpochRecord& rec,
                  RoundBreakdown& rb);
  /// Consult the policy for `round` and, when the decision changed, swap
  /// the reducer's codec (and the EF encoders) to match.
  void apply_policy(std::uint64_t round);
  /// Project a decision onto the run's codec config: scheme + tail depth
  /// change, everything else (layout, seeds, codec knobs) is inherited.
  core::CodecConfig codec_for(const core::PolicyDecision& d,
                              std::uint64_t round) const;
  void rebuild_ef_encoders();

  const ml::SynthCifar& data_;
  collective::Channel& channel_;
  TrainerConfig cfg_;
  collective::AllReducer reducer_;
  ml::Batcher batcher_;
  std::vector<std::unique_ptr<ml::Sequential>> replicas_;
  std::vector<std::unique_ptr<ml::SgdMomentum>> optims_;
  core::Xoshiro256 augment_rng_;
  double sim_time_s_ = 0;
  Membership* membership_ = nullptr;
  net::InvariantMonitor* monitor_ = nullptr;
  /// Per-rank error-feedback residuals (empty vectors until first use;
  /// always sized `world` so checkpoints can serialize them).
  std::vector<std::vector<float>> residuals_;
  /// Per-rank encoders for the local EF round-trip (each owns its own
  /// private stochastic-rounding stream, like the reducer's senders).
  std::vector<std::unique_ptr<core::TrimmableEncoder>> ef_encoders_;
  /// The compression control plane: policy, the decision currently in
  /// force, the codec config it projects to, and the feedback the next
  /// decision will see. All deterministic; decisions_ is the audit trail.
  std::unique_ptr<core::CompressionPolicy> policy_;
  core::PolicyDecision active_;
  core::CodecConfig active_codec_;
  core::NetFeedback last_fb_{};
  std::vector<core::PolicyDecision> decisions_;
};

}  // namespace trimgrad::ddp
