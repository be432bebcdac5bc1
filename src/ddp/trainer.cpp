#include "ddp/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/codec_registry.h"
#include "core/le_bytes.h"
#include "core/metrics.h"
#include "core/prng.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "ddp/clock_model.h"
#include "ddp/membership.h"
#include "net/fault_plane.h"
#include "net/invariants.h"

namespace trimgrad::ddp {

namespace {
struct TrainerTelemetry {
  core::Counter rounds, raw_bytes, wire_bytes, policy_switches;
  core::Gauge compression_ratio, policy_q;

  static const TrainerTelemetry& get() {
    auto& reg = core::MetricsRegistry::global();
    static const TrainerTelemetry t{
        reg.counter("ddp.rounds"),
        reg.counter("ddp.raw_bytes"),
        reg.counter("ddp.wire_bytes"),
        reg.counter("ddp.policy.switches"),
        reg.gauge("ddp.compression_ratio"),
        reg.gauge("ddp.policy.q_bits"),
    };
    return t;
  }
};
}  // namespace

DdpTrainer::DdpTrainer(const ml::SynthCifar& data,
                       collective::Channel& channel, TrainerConfig cfg,
                       const ModelFactory& factory)
    : data_(data),
      channel_(channel),
      cfg_(cfg),
      reducer_(channel, cfg.codec, cfg.algo),
      batcher_(data.train_size(), cfg.global_batch, cfg.shuffle_seed),
      augment_rng_(cfg.augment_seed) {
  assert(cfg_.world >= 2);
  assert(channel_.world_size() == cfg_.world);
  replicas_.reserve(cfg_.world);
  optims_.reserve(cfg_.world);
  for (int r = 0; r < cfg_.world; ++r) {
    replicas_.push_back(factory());
    optims_.push_back(std::make_unique<ml::SgdMomentum>(cfg_.sgd));
  }
  // Exact replication: every rank starts from rank 0's parameters.
  const auto flat = replicas_[0]->flat_params();
  for (int r = 1; r < cfg_.world; ++r) replicas_[r]->set_flat_params(flat);

  residuals_.resize(static_cast<std::size_t>(cfg_.world));

  // Control plane: the policy's action space is seeded from the run's
  // pinned codec — whatever cfg.policy says for codec/q — so the default
  // "fixed" policy replays the pinned-codec path bit-exactly (the round-0
  // decision equals the active codec and no rebuild ever happens).
  core::PolicyConfig pc = cfg_.policy;
  pc.codec = core::CodecRegistry::global().name_of(cfg_.codec.scheme);
  pc.q_bits = cfg_.codec.layout.q_bits;
  policy_ = core::PolicyRegistry::global().make(pc);
  active_ = core::PolicyDecision{pc.codec, pc.q_bits};
  active_codec_ = cfg_.codec;
  rebuild_ef_encoders();
}

void DdpTrainer::rebuild_ef_encoders() {
  if (!cfg_.error_feedback) return;
  // One encoder per rank for the local EF round-trip, each with its own
  // stochastic-rounding stream (mirrors the reducer's per-sender setup).
  ef_encoders_.clear();
  ef_encoders_.reserve(static_cast<std::size_t>(cfg_.world));
  for (int r = 0; r < cfg_.world; ++r) {
    core::CodecConfig cc = active_codec_;
    cc.private_seed = core::mix64(active_codec_.private_seed,
                                  static_cast<std::uint64_t>(r) + 1);
    ef_encoders_.push_back(std::make_unique<core::TrimmableEncoder>(cc));
  }
}

core::CodecConfig DdpTrainer::codec_for(const core::PolicyDecision& d,
                                        std::uint64_t round) const {
  core::CodecConfig cc = cfg_.codec;
  cc.scheme = core::CodecRegistry::global().at(d.codec).scheme;
  cc.layout.q_bits = d.q_bits;
  // Swapping codecs restarts the encoders' private stochastic-rounding
  // streams (AllReducer::set_codec); mixing the switch round into the seed
  // keeps the restarted draws independent of every earlier stream.
  cc.private_seed = core::mix64(cfg_.codec.private_seed, round + 1);
  return cc;
}

void DdpTrainer::apply_policy(std::uint64_t round) {
  const core::PolicyDecision d = policy_->decide(round, last_fb_);
  decisions_.push_back(d);
  if (d == active_) return;
  active_ = d;
  active_codec_ = codec_for(d, round);
  reducer_.set_codec(active_codec_);
  rebuild_ef_encoders();
  const TrainerTelemetry& tel = TrainerTelemetry::get();
  tel.policy_switches.add();
  tel.policy_q.set(static_cast<double>(d.q_bits));
}

std::vector<std::uint8_t> DdpTrainer::policy_state_blob() const {
  // u32 policy-state length + bytes, then the last feedback snapshot —
  // everything decide() consumes besides the round index.
  std::vector<std::uint8_t> blob;
  const auto ps = policy_->state();
  core::put_u32(blob, static_cast<std::uint32_t>(ps.size()));
  blob.insert(blob.end(), ps.begin(), ps.end());
  core::append_feedback(blob, last_fb_);
  return blob;
}

void DdpTrainer::restore_control_plane(const Checkpoint& ck) {
  augment_rng_.set_state(ck.augment_rng);
  if (ck.policy_state.empty()) return;  // v1 blob: no control plane captured
  const std::span<const std::uint8_t> b{ck.policy_state};
  if (b.size() < 4) throw std::runtime_error("policy_state: blob truncated");
  const std::uint32_t n = core::load_u32(b.first(4).data());
  if (b.size() - 4 < n)
    throw std::runtime_error("policy_state: blob truncated");
  policy_->restore(b.subspan(4, n));
  last_fb_ = core::parse_feedback(b.subspan(4 + n));
  // The next apply_policy() call re-derives the decision from the restored
  // controller and swaps the wire codec if it differs from the fresh
  // trainer's base — replaying the interrupted run's trajectory.
}

void DdpTrainer::attach_membership(Membership* membership) {
  membership_ = membership;
  reducer_.set_view(membership != nullptr ? &membership->view() : nullptr);
}

Checkpoint DdpTrainer::make_checkpoint(int rank, std::size_t epoch,
                                       std::uint64_t round) const {
  const auto r = static_cast<std::size_t>(rank);
  Checkpoint ck;
  ck.rank = rank;
  ck.epoch = epoch;
  ck.round = round;
  ck.view_version = membership_ != nullptr ? membership_->view().version : 0;
  ck.params = replicas_.at(r)->flat_params();
  ck.lr = optims_.at(r)->lr();
  ck.opt_epoch = optims_.at(r)->epoch();
  ck.velocity = optims_.at(r)->velocity();
  ck.residual = residuals_.at(r);
  ck.augment_rng = augment_rng_.state();
  ck.policy_state = policy_state_blob();
  return ck;
}

void DdpTrainer::restore_rank(int rank, const Checkpoint& ck) {
  const auto r = static_cast<std::size_t>(rank);
  replicas_.at(r)->set_flat_params(ck.params);
  optims_.at(r)->restore(ck.lr, ck.opt_epoch, ck.velocity);
  residuals_.at(r) = ck.residual;
}

void DdpTrainer::apply_error_feedback(
    std::vector<std::vector<float>>& grads,
    const std::vector<std::uint8_t>& live_mask, std::size_t epoch,
    std::uint32_t round) {
  if (!cfg_.error_feedback) return;
  const core::TrimmableDecoder decoder(active_codec_);
  for (std::size_t r = 0; r < grads.size(); ++r) {
    if (live_mask[r] == 0) continue;
    auto& res = residuals_[r];
    if (res.size() != grads[r].size()) res.assign(grads[r].size(), 0.0f);
    for (std::size_t i = 0; i < grads[r].size(); ++i) grads[r][i] += res[i];
    // The residual is the local quantization error: what this rank is about
    // to send minus what its own codec round-trip reconstructs. Network
    // loss (trims/drops) stays out of the residual, as in standard EF.
    const auto enc =
        ef_encoders_[r]->encode(grads[r], 0xef000000u + round, epoch);
    const auto dec = decoder.decode(enc.packets, enc.meta);
    for (std::size_t i = 0; i < grads[r].size(); ++i) {
      res[i] = grads[r][i] - dec.values[i];
    }
  }
}

void DdpTrainer::try_rejoin(int rank, std::uint64_t round, EpochRecord& rec,
                            RoundBreakdown& rb) {
  // Restore the rank's last checkpointed state (optimizer momentum,
  // residual, stale params) ...
  if (membership_->has_checkpoint(rank)) {
    restore_rank(rank, membership_->restore_checkpoint(rank));
  }
  // ... then pull current parameters from a live peer over the fabric. If
  // the fetch fails (donor's link is down too), stay evicted; the next
  // poll offers another chance.
  const auto live = membership_->view().live_ranks();
  if (live.empty()) return;
  const int donor = live.front();
  const auto fetch = membership_->fetch_params(
      donor, rank, replicas_.at(static_cast<std::size_t>(donor))->param_count());
  rb.comm_s += fetch.comm_s;
  rec.wire_bytes += fetch.wire_bytes;
  if (fetch.failed) return;
  replicas_.at(static_cast<std::size_t>(rank))
      ->set_flat_params(replicas_.at(static_cast<std::size_t>(donor))
                            ->flat_params());
  // Momentum comes from the checkpoint; the lr schedule position comes
  // from the collective (the checkpoint's may lag if the outage spanned an
  // epoch boundary).
  auto vel = optims_.at(static_cast<std::size_t>(rank))->velocity();
  optims_.at(static_cast<std::size_t>(rank))
      ->restore(optims_.at(static_cast<std::size_t>(donor))->lr(),
                optims_.at(static_cast<std::size_t>(donor))->epoch(),
                std::move(vel));
  membership_->complete_rejoin(rank, round);
  ++rec.recovered_ranks;
}

std::vector<std::vector<float>> DdpTrainer::all_reduce_buckets(
    const std::vector<std::vector<float>>& grads, std::size_t epoch,
    std::uint32_t round, EpochRecord& rec, RoundBreakdown& rb) {
  const std::size_t n = grads[0].size();
  const std::size_t bucket =
      cfg_.bucket_floats == 0 ? n : std::min(cfg_.bucket_floats, n);
  std::vector<std::vector<float>> out(grads.size(), std::vector<float>(n));

  std::uint32_t msg_id = round * 1024;
  for (std::size_t off = 0; off < n; off += bucket) {
    const std::size_t len = std::min(bucket, n - off);
    std::vector<std::vector<float>> slice(grads.size());
    for (std::size_t r = 0; r < grads.size(); ++r) {
      slice[r].assign(grads[r].begin() + off, grads[r].begin() + off + len);
    }
    auto result = reducer_.run(slice, msg_id++, epoch);
    // Deterministic codec-time model: per-coordinate costs calibrated once
    // per process; coords decoded == coords encoded for both algorithms.
    const CodecCosts& costs = calibrated_costs(active_codec_.scheme);
    const auto coords =
        static_cast<double>(result.stats.coord_stats.total_coords);
    rb.encode_s += costs.encode_per_coord_s * coords;
    rb.decode_s += costs.decode_per_coord_s * coords;
    rb.comm_s += result.stats.comm_time;
    rec.trimmed_packets += result.stats.trimmed_packets;
    rec.dropped_packets += result.stats.dropped_packets;
    rec.retransmits += result.stats.retransmits;
    rec.wire_bytes += result.stats.wire_bytes;
    rec.missing_ranks += result.stats.missing_ranks;
    rec.degraded_rounds += result.stats.degraded_rounds;
    for (std::size_t r = 0; r < grads.size(); ++r) {
      std::copy(result.outputs[r].begin(), result.outputs[r].end(),
                out[r].begin() + off);
    }
  }
  return out;
}

EpochRecord DdpTrainer::run_epoch(std::size_t epoch) {
  EpochRecord rec;
  rec.epoch = epoch;
  const net::StragglerSchedule straggle{cfg_.fault_seed,
                                        cfg_.straggler_factor};
  rec.straggler_rank =
      straggle.enabled() ? straggle.straggler_rank(epoch, cfg_.world) : -1;
  const std::size_t n_batches = batcher_.batches_per_epoch();
  double loss_sum = 0;
  RoundBreakdown total_rb;
  std::uint64_t epoch_raw_bytes = 0;

  const bool elastic = membership_ != nullptr;

  for (std::size_t b = 0; b < n_batches; ++b) {
    RoundBreakdown rb;
    const std::size_t world = static_cast<std::size_t>(cfg_.world);
    const std::uint64_t global_round =
        static_cast<std::uint64_t>(epoch) * n_batches + b;
    std::vector<std::vector<float>> grads(world);
    std::vector<double> rank_loss(world, 0.0);

    // Control plane: decide this round's codec from last round's feedback
    // before anything is encoded (the EF round-trip uses the same codec).
    apply_policy(global_round);

    // Control plane first: one heartbeat window, then any pending rejoins —
    // so a recovered rank is back in the view before this round's
    // collective forms its participant set. The window and any parameter
    // fetch run on the simulated clock and bill into comm time.
    if (elastic) {
      const PollResult pr = membership_->poll(global_round);
      rb.comm_s += membership_->cfg().heartbeat_s;
      for (const int r : pr.rejoin_ready) {
        try_rejoin(r, global_round, rec, rb);
      }
    }
    std::vector<std::uint8_t> live_mask(world, 1);
    int live_count = cfg_.world;
    if (elastic) {
      for (std::size_t r = 0; r < world; ++r) {
        live_mask[r] =
            membership_->view().is_live(static_cast<int>(r)) ? 1 : 0;
      }
      live_count = membership_->view().live_count();
    }
    const double loss_div = static_cast<double>(live_count);

    // Assemble every rank's augmented batch sequentially first: the
    // augmentation RNG is one stream consumed in rank order, and keeping
    // that on the calling thread makes the training trajectory identical
    // to the sequential trainer for every thread count. Batch assembly is
    // data movement (copy + flip + shift), a sliver of the round next to
    // forward/backward.
    std::vector<ml::Tensor> inputs(world);
    std::vector<std::vector<std::uint32_t>> labels(world);
    for (std::size_t r = 0; r < world; ++r) {
      const auto shard = batcher_.worker_shard(epoch, b, r, world);
      inputs[r] = data_.train_batch(shard, labels[r], augment_rng_);
    }

    // The W replicas' forward/backward are independent, so run them on the
    // pool — this is where DDP's "workers compute in parallel" becomes
    // literal. Every result lands in a per-rank slot; losses are then
    // reduced in rank order afterwards, so the round is bit-exact for any
    // thread count.
    const std::size_t n_params = replicas_[0]->param_count();
    core::parallel_for(world, 1, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        // An evicted rank computes nothing; its (zero) gradient slot keeps
        // the bucket shapes uniform but never reaches the collective — the
        // view-aware reducer excludes it from the participant set.
        if (live_mask[r] == 0) {
          grads[r].assign(n_params, 0.0f);
          continue;
        }
        replicas_[r]->zero_grads();
        const ml::Tensor logits = replicas_[r]->forward(inputs[r]);
        const auto lr = ml::softmax_cross_entropy(logits, labels[r]);
        replicas_[r]->backward(lr.grad);
        rank_loss[r] = lr.loss / loss_div;
        grads[r] = replicas_[r]->flat_grads();
      }
    });
    double round_loss = 0;
    for (std::size_t r = 0; r < world; ++r) round_loss += rank_loss[r];
    // DDP: workers compute in parallel; the round waits for the slowest —
    // which is why a single injected straggler stretches the whole round.
    rb.compute_s = cfg_.compute_round_s *
                   (rec.straggler_rank >= 0 ? cfg_.straggler_factor : 1.0);

    apply_error_feedback(grads, live_mask,
                         epoch, static_cast<std::uint32_t>(global_round));

    const std::uint64_t wire_before = rec.wire_bytes;
    const auto averaged = all_reduce_buckets(
        grads, epoch, static_cast<std::uint32_t>(global_round), rec, rb);
    // Drain the channel's telemetry window once per round, right after the
    // collective: this is the snapshot the next round's decision sees.
    last_fb_ = channel_.take_feedback();
    last_fb_.round = global_round;
    for (int r = 0; r < cfg_.world; ++r) {
      if (live_mask[static_cast<std::size_t>(r)] == 0) continue;
      optims_[r]->step_flat(replicas_[r]->params(), averaged[r]);
    }

    // Periodic checkpoints of every live rank, after the round's update so
    // a restore lands on a round boundary. Serialization is pure reads —
    // the training trajectory is identical with or without it.
    if (elastic && membership_->cfg().ckpt_every > 0 &&
        (global_round + 1) % membership_->cfg().ckpt_every == 0) {
      for (int r = 0; r < cfg_.world; ++r) {
        if (live_mask[static_cast<std::size_t>(r)] == 0) continue;
        membership_->store_checkpoint(make_checkpoint(r, epoch, global_round));
      }
    }

    // Per-round telemetry on the trainer's own simulated clock: the four
    // stages chain back-to-back from the round's start, matching how
    // sim_time_s_ advances. The durations are modeled, so the trace is
    // fully deterministic.
    const std::uint64_t round_raw =
        static_cast<std::uint64_t>(world) * grads[0].size() * sizeof(float);
    const TrainerTelemetry& tel = TrainerTelemetry::get();
    tel.rounds.add();
    tel.raw_bytes.add(round_raw);
    epoch_raw_bytes += round_raw;
    tel.wire_bytes.add(rec.wire_bytes - wire_before);
    auto& tl = core::TraceLog::global();
    double t = sim_time_s_;
    tl.complete("ddp.compute", "ddp", t, rb.compute_s, /*tid=*/1);
    t += rb.compute_s;
    tl.complete("ddp.encode", "ddp", t, rb.encode_s, /*tid=*/1);
    t += rb.encode_s;
    tl.complete("ddp.comm", "ddp", t, rb.comm_s, /*tid=*/1);
    t += rb.comm_s;
    tl.complete("ddp.decode", "ddp", t, rb.decode_s, /*tid=*/1);

    loss_sum += round_loss;
    total_rb.compute_s += rb.compute_s;
    total_rb.encode_s += rb.encode_s;
    total_rb.comm_s += rb.comm_s;
    total_rb.decode_s += rb.decode_s;
    sim_time_s_ += rb.total();
  }

  for (auto& opt : optims_) opt->end_epoch();

  // Achieved compression over this epoch: raw gradient bytes / wire bytes.
  if (rec.wire_bytes > 0) {
    TrainerTelemetry::get().compression_ratio.set(
        static_cast<double>(epoch_raw_bytes) /
        static_cast<double>(rec.wire_bytes));
  }

  rec.sim_time_s = sim_time_s_;
  rec.train_loss = loss_sum / static_cast<double>(n_batches);
  rec.mean_round = {total_rb.compute_s / n_batches,
                    total_rb.encode_s / n_batches,
                    total_rb.comm_s / n_batches,
                    total_rb.decode_s / n_batches};

  if (elastic) rec.view_version = membership_->view().version;

  // Replica drift from lossy per-rank decodes. Evicted replicas are frozen
  // at pre-fault parameters — excluded, they'd swamp the live drift.
  const auto ref = replicas_[0]->flat_params();
  for (int r = 1; r < cfg_.world; ++r) {
    if (elastic && !membership_->view().is_live(r)) continue;
    const auto other = replicas_[r]->flat_params();
    double worst = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      worst = std::max(worst,
                       std::fabs(static_cast<double>(ref[i]) - other[i]));
    }
    rec.replica_divergence = std::max(rec.replica_divergence, worst);
  }
  return rec;
}

void DdpTrainer::evaluate(EpochRecord& rec) {
  const std::size_t n = data_.test_size();
  std::size_t done = 0;
  double top1 = 0, top5 = 0;
  while (done < n) {
    const std::size_t count = std::min(cfg_.eval_batch, n - done);
    std::vector<std::uint32_t> labels;
    const ml::Tensor x = data_.test_batch(done, count, labels);
    const ml::Tensor logits = replicas_[0]->forward(x);
    top1 += ml::top_k_accuracy(logits, labels, 1) * count;
    top5 += ml::top_k_accuracy(logits, labels, 5) * count;
    done += count;
  }
  rec.top1 = top1 / static_cast<double>(n);
  rec.top5 = top5 / static_cast<double>(n);
}

std::vector<EpochRecord> DdpTrainer::train() {
  std::vector<EpochRecord> records;
  records.reserve(cfg_.epochs);
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    EpochRecord rec = run_epoch(e);
    if (monitor_ != nullptr) monitor_->on_epoch_time(e, rec.sim_time_s);
    if (cfg_.eval_every > 0 &&
        (e % cfg_.eval_every == 0 || e + 1 == cfg_.epochs)) {
      evaluate(rec);
    }
    records.push_back(rec);
  }
  return records;
}

}  // namespace trimgrad::ddp
