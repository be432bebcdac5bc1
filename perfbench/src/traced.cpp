#include "traced.h"

#include <cstdio>
#include <stdexcept>

#include "core/codec_registry.h"
#include "core/prng.h"
#include "core/threadpool.h"
#include "ml/loss.h"

namespace perfbench {

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

std::int32_t SpanLog::add(const Span& s) {
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"cell\":%u,\"round\":%u}}\n",
                 i == 0 ? "" : ",", s.name, s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent, s.cell, s.round);
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::vector<collective::Delivery> TimedChannel::transfer(
    std::vector<collective::TransferRequest> batch) {
  for (const auto& req : batch) coords_sent += req.message.meta.total_coords;
  const double t0 = spans_ != nullptr ? now_s() : 0.0;
  const std::uint64_t ev0 = sim_ != nullptr ? sim_->executed_events() : 0;
  auto out = inner_.transfer(std::move(batch));
  if (spans_ != nullptr) {
    const double t1 = now_s();
    transfer_s += t1 - t0;
    if (sim_ != nullptr) events += sim_->executed_events() - ev0;
    spans_->add({"collective.transfer", t0, t1, parent_, cell_, round_});
  }
  transfers += out.size();
  for (const auto& d : out) failed_transfers += d.flow_failed ? 1 : 0;
  return out;
}

core::NetFeedback TimedChannel::take_feedback() {
  core::NetFeedback fb = inner_.take_feedback();
  feedback_times.push_back(Clock::now());
  return fb;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t CellOutcome::digest() const {
  std::uint64_t h = kFnvBasis;
  h = fnv1a(h, epoch_loss.data(), epoch_loss.size() * sizeof(double));
  for (const auto& d : decisions) {
    h = fnv1a(h, d.codec.data(), d.codec.size());
    h = fnv1a(h, &d.q_bits, sizeof(d.q_bits));
  }
  h = fnv1a(h, rank0_params.data(), rank0_params.size() * sizeof(float));
  return fnv1a(h, &top1, sizeof(top1));
}

TracedTrainer::TracedTrainer(const ml::SynthCifar& data, TimedChannel& channel,
                             const ddp::TrainerConfig& cfg,
                             const ddp::DdpTrainer::ModelFactory& factory,
                             SpanLog& log, std::uint32_t cell)
    : data_(data),
      channel_(channel),
      cfg_(cfg),
      log_(log),
      cell_(cell),
      reducer_(channel, cfg.codec, cfg.algo),
      batcher_(data.train_size(), cfg.global_batch, cfg.shuffle_seed),
      augment_rng_(cfg.augment_seed) {
  for (int r = 0; r < cfg_.world; ++r) {
    replicas_.push_back(factory());
    optims_.push_back(std::make_unique<ml::SgdMomentum>(cfg_.sgd));
  }
  const auto flat = replicas_[0]->flat_params();
  for (int r = 1; r < cfg_.world; ++r) replicas_[r]->set_flat_params(flat);
  core::PolicyConfig pc = cfg_.policy;
  pc.codec = core::CodecRegistry::global().name_of(cfg_.codec.scheme);
  pc.q_bits = cfg_.codec.layout.q_bits;
  policy_ = core::PolicyRegistry::global().make(pc);
  active_ = core::PolicyDecision{pc.codec, pc.q_bits};
}

void TracedTrainer::run_epoch(std::size_t epoch,
                              std::vector<RoundSample>& rounds,
                              CellOutcome& out) {
  const std::size_t world = static_cast<std::size_t>(cfg_.world);
  const std::size_t n_batches = batcher_.batches_per_epoch();
  double loss_sum = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    const std::uint64_t global_round =
        static_cast<std::uint64_t>(epoch) * n_batches + b;
    const auto round_id = static_cast<std::uint32_t>(global_round);
    RoundSample rs;
    const double t_round = now_s();
    const std::int32_t root =
        log_.add({"round", t_round, t_round, -1, cell_, round_id});
    auto stage = [&](const char* name, double t0) {
      const double t1 = now_s();
      log_.add({name, t0, t1, root, cell_, round_id});
      return t1 - t0;
    };

    // Control plane, exactly as DdpTrainer::apply_policy / codec_for.
    double t0 = now_s();
    const core::PolicyDecision d = policy_->decide(global_round, last_fb_);
    decisions_.push_back(d);
    if (!(d == active_)) {
      active_ = d;
      core::CodecConfig cc = cfg_.codec;
      cc.scheme = core::CodecRegistry::global().at(d.codec).scheme;
      cc.layout.q_bits = d.q_bits;
      cc.private_seed = core::mix64(cfg_.codec.private_seed, global_round + 1);
      reducer_.set_codec(cc);
      ++switches_;
    }
    rs.policy_s = stage("core.policy", t0);
    rs.scheme = reducer_.codec().scheme;

    t0 = now_s();
    std::vector<ml::Tensor> inputs(world);
    std::vector<std::vector<std::uint32_t>> labels(world);
    for (std::size_t r = 0; r < world; ++r) {
      const auto shard = batcher_.worker_shard(epoch, b, r, world);
      inputs[r] = data_.train_batch(shard, labels[r], augment_rng_);
    }
    rs.batch_s = stage("ml.batch", t0);

    t0 = now_s();
    std::vector<std::vector<float>> grads(world);
    std::vector<double> rank_loss(world, 0.0);
    const double loss_div = static_cast<double>(cfg_.world);
    core::parallel_for(world, 1, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        replicas_[r]->zero_grads();
        const ml::Tensor logits = replicas_[r]->forward(inputs[r]);
        const auto lr = ml::softmax_cross_entropy(logits, labels[r]);
        replicas_[r]->backward(lr.grad);
        rank_loss[r] = lr.loss / loss_div;
        grads[r] = replicas_[r]->flat_grads();
      }
    });
    for (std::size_t r = 0; r < world; ++r) rs.loss += rank_loss[r];
    rs.fwd_bwd_s = stage("ml.fwd_bwd", t0);

    t0 = now_s();
    const std::int32_t ar =
        log_.add({"collective.allreduce", t0, t0, root, cell_, round_id});
    channel_.set_round(ar, cell_, round_id);
    channel_.transfer_s = 0;
    channel_.events = 0;
    const std::uint64_t sent0 = channel_.coords_sent;
    auto result = reducer_.run(grads, round_id * 1024, epoch);
    const double t1 = now_s();
    log_.at(ar).end_s = t1;
    rs.allreduce_s = t1 - t0;
    rs.encode_s = result.stats.encode_seconds;
    rs.decode_s = result.stats.decode_seconds;
    rs.transfer_s = channel_.transfer_s;
    rs.events = channel_.events;
    rs.encode_coords = channel_.coords_sent - sent0;
    rs.decode_coords = result.stats.coord_stats.total_coords;

    t0 = now_s();
    last_fb_ = channel_.take_feedback();
    last_fb_.round = global_round;
    rs.feedback = last_fb_;
    rs.feedback_s = stage("collective.feedback", t0);

    t0 = now_s();
    for (std::size_t r = 0; r < world; ++r) {
      optims_[r]->step_flat(replicas_[r]->params(), result.outputs[r]);
    }
    rs.optim_s = stage("ml.optim", t0);

    const double t_end = now_s();
    log_.at(root).end_s = t_end;
    rs.round_s = t_end - t_round;
    loss_sum += rs.loss;
    rounds.push_back(rs);
  }
  for (auto& opt : optims_) opt->end_epoch();
  out.epoch_loss.push_back(loss_sum / static_cast<double>(n_batches));
}

double TracedTrainer::evaluate() {
  const double t0 = now_s();
  const std::size_t n = data_.test_size();
  std::size_t done = 0;
  double top1 = 0;
  while (done < n) {
    const std::size_t count = std::min(cfg_.eval_batch, n - done);
    std::vector<std::uint32_t> labels;
    const ml::Tensor x = data_.test_batch(done, count, labels);
    const ml::Tensor logits = replicas_[0]->forward(x);
    top1 += ml::top_k_accuracy(logits, labels, 1) * count;
    done += count;
  }
  log_.add({"ml.eval", t0, now_s(), -1, cell_, 0});
  return top1 / static_cast<double>(n);
}

}  // namespace perfbench
