// perfbench: the trimgrad training benchmark's measuring process.
//
//   perfbench setup <workload> <seed>
//       Set up every cell of the workload once, as a fresh process does
//       before its first round, and print {"setup_s": ...}.
//   perfbench run <workload> <seed> <seconds> <trace 0|1> <trace_file>
//       Repeat passes over the workload's cells for about <seconds> and
//       print one JSON report line. trace 0 times DdpTrainer from outside
//       (end-to-end metrics); trace 1 alternates DdpTrainer passes with
//       traced round-driver passes (per-layer metrics, spans written to
//       <trace_file>).
//
// perfbench/run.py builds this program and turns its report into the
// benchmark's result line; perfbench/WORKLOADS.md defines the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec_registry.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "ddp/clock_model.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kCoverageTolerance = 0.05;
/// The untimed warm-up repeats the first cell for at least this long: a
/// fresh process sometimes runs rounds about twice as slow for its first
/// 1.5-2 s, whichever cell it is in (see perfbench/WORKLOADS.md).
constexpr double kWarmupS = 3.0;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Everything before a cell's first round: dataset, channel (and fabric),
/// the clock-model calibration DdpTrainer would otherwise run lazily inside
/// round 1, and — by the caller — the trainer. With `spans`, the channel
/// records a span per transfer.
struct CellSetup {
  CellSetup(const CellSpec& cell, SpanLog* spans)
      : env(cell),
        channel(env.channel(), env.sim(), spans),
        tcfg(trainer_config(cell)) {
    ddp::calibrated_costs(tcfg.codec.scheme);
  }
  CellEnv env;
  TimedChannel channel;
  ddp::TrainerConfig tcfg;
};

bool evaluates(const ddp::TrainerConfig& t, std::size_t e) {
  return t.eval_every > 0 && (e % t.eval_every == 0 || e + 1 == t.epochs);
}

/// Accumulated over the untraced passes of a run.
struct Untraced {
  std::vector<double> round_s;
  std::vector<double> pass_s;      ///< training + evaluation, no set-up
  std::vector<double> pass_p50_s;  ///< round p50 of each pass
  std::vector<double> pass_p90_s;  ///< round p90 of each pass
  double train_s = 0;              ///< sum of round_s
  std::uint64_t samples = 0;
  std::uint64_t transfers = 0;
  std::uint64_t failed = 0;
};

/// One cell through DdpTrainer, as DdpTrainer::train() runs it. Round times
/// come from the channel's take_feedback() marks: round k runs from mark k−1
/// (the epoch start for k = 0) to mark k, and the epoch's tail (the last
/// optimizer step) joins its last round, so an epoch's rounds sum to its
/// run_epoch() time.
CellOutcome run_untraced(const CellSpec& cell, Untraced& acc,
                         double& work_s) {
  CellSetup s(cell, nullptr);
  ddp::DdpTrainer trainer(s.env.data(), s.channel, s.tcfg,
                          model_factory(cell));
  CellOutcome out;
  for (std::size_t e = 0; e < s.tcfg.epochs; ++e) {
    s.channel.feedback_times.clear();
    const auto t0 = Clock::now();
    ddp::EpochRecord rec = trainer.run_epoch(e);
    const auto t1 = Clock::now();
    const auto& marks = s.channel.feedback_times;
    for (std::size_t k = 0; k < marks.size(); ++k) {
      double r = seconds(k == 0 ? t0 : marks[k - 1], marks[k]);
      if (k + 1 == marks.size()) r += seconds(marks[k], t1);
      acc.round_s.push_back(r);
    }
    acc.train_s += seconds(t0, t1);
    acc.samples += marks.size() * s.tcfg.global_batch;
    work_s += seconds(t0, t1);
    if (evaluates(s.tcfg, e)) {
      const auto v0 = Clock::now();
      trainer.evaluate(rec);
      work_s += seconds(v0, Clock::now());
      out.top1 = rec.top1;
    }
    out.epoch_loss.push_back(rec.train_loss);
  }
  out.decisions = trainer.decisions();
  out.rank0_params = trainer.replica(0).flat_params();
  acc.transfers += s.channel.transfers;
  acc.failed += s.channel.failed_transfers;
  return out;
}

/// Accumulated over the traced passes of a run.
struct Traced {
  std::vector<RoundSample> rounds;
  std::vector<double> eval_s;
  double cpu_s = 0;  ///< process CPU time over traced epochs
  std::uint64_t switches = 0;
  std::vector<std::uint64_t> round_loss_bits;  ///< first traced pass
};

CellOutcome run_traced(const CellSpec& cell, std::uint32_t cell_id,
                       SpanLog& log, Traced& acc, bool first_pass) {
  const double t_setup = now_s();
  CellSetup s(cell, &log);
  TracedTrainer trainer(s.env.data(), s.channel, s.tcfg, model_factory(cell),
                        log, cell_id);
  log.add({"cell.setup", t_setup, now_s(), -1, cell_id, 0});
  const ddp::TrainerConfig& tcfg = s.tcfg;
  CellOutcome out;
  for (std::size_t e = 0; e < tcfg.epochs; ++e) {
    const std::size_t first = acc.rounds.size();
    const double c0 = cpu_seconds();
    trainer.run_epoch(e, acc.rounds, out);
    acc.cpu_s += cpu_seconds() - c0;
    if (first_pass) {
      for (std::size_t i = first; i < acc.rounds.size(); ++i) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &acc.rounds[i].loss, sizeof bits);
        acc.round_loss_bits.push_back(bits);
      }
    }
    if (evaluates(tcfg, e)) {
      const double v0 = now_s();
      out.top1 = trainer.evaluate();
      acc.eval_s.push_back(now_s() - v0);
    }
  }
  out.decisions = trainer.decisions();
  out.rank0_params = trainer.rank0_params();
  acc.switches += trainer.policy_switches();
  return out;
}

std::string json_list(const std::vector<double>& v, double scale) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", scale * v[i]);
    out += buf;
  }
  return out + "]";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t workload_digest(const std::vector<CellOutcome>& cells) {
  std::uint64_t h = kFnvBasis;
  for (const auto& c : cells) {
    const std::uint64_t d = c.digest();
    h = fnv1a(h, &d, sizeof d);
  }
  return h;
}

/// Streams `"key":value` pairs into a JSON object.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  JsonObject& metric(const std::string& k, double v, const char* unit) {
    JsonObject m;
    m.num("value", v).str("unit", unit);
    return raw(k, m.done());
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int cmd_setup(const Workload& w) {
  const auto t0 = Clock::now();
  for (const auto& cell : w.cells) {
    CellSetup s(cell, nullptr);
    ddp::DdpTrainer trainer(s.env.data(), s.channel, s.tcfg,
                            model_factory(cell));
  }
  std::printf("%s\n", JsonObject().num("setup_s", seconds(t0, Clock::now()))
                          .done()
                          .c_str());
  return 0;
}

int cmd_run(const Workload& w, double budget_s, bool trace,
            const std::string& trace_path) {
  std::vector<std::string> errors;
  // Untimed warm-up: the first cell, repeated for kWarmupS before the clock
  // starts (see perfbench/WORKLOADS.md, "Warm-up"). Every repeat is also a
  // replay check.
  const auto w0 = Clock::now();
  std::vector<CellOutcome> warm;
  do {
    Untraced scratch;
    double ignored = 0;
    warm.push_back(run_untraced(w.cells.front(), scratch, ignored));
  } while (seconds(w0, Clock::now()) < kWarmupS);
  const double warmup_s = seconds(w0, Clock::now());

  Untraced un;
  Traced tr;
  SpanLog log;
  std::vector<CellOutcome> first_untraced, first_traced;
  std::size_t passes = 0, traced_passes = 0;
  const double c_start = cpu_seconds();
  const auto start = Clock::now();
  double last_pass_s = 0;
  // At least two passes (one of each kind when tracing); then stop when
  // another pass would overrun the budget.
  while (passes < 2 ||
         seconds(start, Clock::now()) + last_pass_s <= budget_s) {
    const auto p0 = Clock::now();
    const std::size_t pass_first_round = un.round_s.size();
    const bool traced_pass = trace && passes % 2 == 1;
    std::vector<CellOutcome> outs;
    double work_s = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      outs.push_back(traced_pass
                         ? run_traced(w.cells[i], static_cast<std::uint32_t>(i),
                                      log, tr, traced_passes == 0)
                         : run_untraced(w.cells[i], un, work_s));
    }
    auto& first = traced_pass ? first_traced : first_untraced;
    if (first.empty()) {
      first = outs;
    } else {
      for (std::size_t i = 0; i < outs.size(); ++i) {
        if (outs[i].digest() != first[i].digest())
          errors.push_back("cell " + w.cells[i].label +
                           " did not replay bit-identically");
      }
    }
    if (traced_pass) {
      ++traced_passes;
    } else {
      un.pass_s.push_back(work_s);
      const std::vector<double> pass_rounds(
          un.round_s.begin() + static_cast<std::ptrdiff_t>(pass_first_round),
          un.round_s.end());
      un.pass_p50_s.push_back(quantile(pass_rounds, 0.5));
      un.pass_p90_s.push_back(quantile(pass_rounds, 0.9));
    }
    ++passes;
    last_pass_s = seconds(p0, Clock::now());
  }
  const double measured_s = seconds(start, Clock::now());
  const double cpu_s = cpu_seconds() - c_start;

  for (const auto& c : warm) {
    if (c.digest() != first_untraced.front().digest()) {
      errors.push_back("cell " + w.cells.front().label +
                       " did not replay bit-identically in the warm-up");
      break;
    }
  }
  double final_loss = 0;
  std::vector<double> cell_loss;
  for (const auto& c : first_untraced) {
    cell_loss.push_back(c.epoch_loss.back());
    for (const double l : c.epoch_loss) {
      if (!std::isfinite(l)) errors.push_back("non-finite training loss");
    }
    final_loss += c.epoch_loss.back();
  }
  final_loss /= static_cast<double>(first_untraced.size());
  const std::uint64_t digest = workload_digest(first_untraced);
  if (trace && workload_digest(first_traced) != digest)
    errors.push_back("traced driver's digest differs from DdpTrainer's");
  if (un.failed > 0)
    errors.push_back(std::to_string(un.failed) + " transfers failed");

  // Rounds run at one of two speeds, about 1.45x apart, as contention for
  // the host's shared cache and memory comes and goes (perfbench/WORKLOADS.md,
  // "Passes and the host's two speeds"). round_ms_p90 lies in the slow speed
  // in nearly every pass, so the slowest pass's p90 is steady; the median and
  // the pass time follow the share of fast time, so they are averaged over
  // the run rather than taken from one pass.
  JsonObject metrics;
  if (!trace) {
    metrics
        .metric("run_s", mean(un.pass_s), "s")
        .metric("samples_per_s",
                static_cast<double>(un.samples) / un.train_s, "samples/s")
        .metric("round_ms_p50", 1e3 * mean(un.pass_p50_s), "ms")
        .metric("round_ms_p90",
                1e3 * *std::max_element(un.pass_p90_s.begin(),
                                        un.pass_p90_s.end()),
                "ms")
        .metric("peak_rss_mb", peak_rss_mb(), "MB")
        .metric("delivered_transfer_frac",
                1.0 - static_cast<double>(un.failed) /
                          static_cast<double>(un.transfers),
                "frac")
        .metric("final_loss", final_loss, "nats");
  } else {
    const auto& rs = tr.rounds;
    auto per_round_ms = [&](auto field) {
      double s = 0;
      for (const auto& r : rs) s += field(r);
      return 1e3 * s / static_cast<double>(rs.size());
    };
    std::vector<double> traced_round, uncovered;
    double enc_s = 0, dec_s = 0, xfer_s = 0;
    std::uint64_t enc_c = 0, dec_c = 0, events = 0;
    for (const auto& r : rs) {
      traced_round.push_back(r.round_s);
      uncovered.push_back(1.0 - r.covered());
      enc_s += r.encode_s;
      dec_s += r.decode_s;
      xfer_s += r.transfer_s;
      enc_c += r.encode_coords;
      dec_c += r.decode_coords;
      events += r.events;
    }
    const double worst_gap =
        *std::max_element(uncovered.begin(), uncovered.end());
    if (worst_gap > kCoverageTolerance)
      errors.push_back("stage spans leave " + std::to_string(worst_gap) +
                       " of a round uncovered");
    // Feedback counts repeat exactly per pass: take them from the first
    // traced pass's rounds.
    const std::size_t per_pass = tr.round_loss_bits.size();
    double packets = 0, trimmed = 0, retrans = 0, wire = 0;
    for (std::size_t i = 0; i < per_pass; ++i) {
      packets += static_cast<double>(rs[i].feedback.packets);
      trimmed += static_cast<double>(rs[i].feedback.trimmed);
      retrans += static_cast<double>(rs[i].feedback.retransmits);
      wire += static_cast<double>(rs[i].feedback.wire_bytes);
    }
    const double n_pass = static_cast<double>(per_pass);
    metrics
        .metric("ml.batch_ms", per_round_ms([](auto& r) { return r.batch_s; }),
                "ms")
        .metric("ml.fwd_bwd_ms",
                per_round_ms([](auto& r) { return r.fwd_bwd_s; }), "ms")
        .metric("ml.optim_ms", per_round_ms([](auto& r) { return r.optim_s; }),
                "ms")
        .metric("ml.eval_ms", 1e3 * mean(tr.eval_s), "ms")
        .metric("core.policy_ms",
                per_round_ms([](auto& r) { return r.policy_s; }), "ms")
        .metric("core.encode_ms",
                per_round_ms([](auto& r) { return r.encode_s; }), "ms")
        .metric("core.decode_ms",
                per_round_ms([](auto& r) { return r.decode_s; }), "ms")
        .metric("core.encode_mcoords_per_s",
                enc_s > 0 ? 1e-6 * static_cast<double>(enc_c) / enc_s : 0,
                "Mcoord/s")
        .metric("core.decode_mcoords_per_s",
                dec_s > 0 ? 1e-6 * static_cast<double>(dec_c) / dec_s : 0,
                "Mcoord/s");
    // Per-scheme codec throughput (0 where the workload never runs the
    // scheme).
    for (const core::Scheme sch :
         {core::Scheme::kBaseline, core::Scheme::kSign, core::Scheme::kSQ,
          core::Scheme::kSD, core::Scheme::kRHT}) {
      double es = 0, ds = 0;
      std::uint64_t ec = 0, dc = 0;
      for (const auto& r : rs) {
        if (r.scheme != sch) continue;
        es += r.encode_s;
        ds += r.decode_s;
        ec += r.encode_coords;
        dc += r.decode_coords;
      }
      const std::string name = core::CodecRegistry::global().name_of(sch);
      metrics
          .metric("core.encode_mcoords_per_s." + name,
                  es > 0 ? 1e-6 * static_cast<double>(ec) / es : 0, "Mcoord/s")
          .metric("core.decode_mcoords_per_s." + name,
                  ds > 0 ? 1e-6 * static_cast<double>(dc) / ds : 0,
                  "Mcoord/s");
    }
    metrics
        .metric("collective.transfer_ms",
                per_round_ms([](auto& r) { return r.transfer_s; }), "ms")
        .metric("collective.reduce_self_ms", per_round_ms([](auto& r) {
                  return r.allreduce_s - r.encode_s - r.decode_s -
                         r.transfer_s;
                }),
                "ms")
        .metric("collective.feedback_ms",
                per_round_ms([](auto& r) { return r.feedback_s; }), "ms")
        .metric("net.events_per_round",
                static_cast<double>(events) / static_cast<double>(rs.size()),
                "count")
        .metric("net.mevents_per_s",
                events > 0 ? 1e-6 * static_cast<double>(events) / xfer_s : 0,
                "Mevent/s")
        .metric("net.packets_per_round", packets / n_pass, "count")
        .metric("net.trimmed_frac", packets > 0 ? trimmed / packets : 0,
                "frac")
        .metric("net.retransmits_per_round", retrans / n_pass, "count")
        .metric("net.wire_mb_per_round", wire / n_pass / 1e6, "MB")
        .metric("core.policy_switches",
                static_cast<double>(tr.switches) /
                    static_cast<double>(traced_passes),
                "count")
        .metric("proc.cpu_ms_per_round",
                1e3 * tr.cpu_s / static_cast<double>(rs.size()), "ms")
        .metric("trace.round_ms_mean",
                per_round_ms([](auto& r) { return r.round_s; }), "ms")
        .metric("trace.uncovered_frac", quantile(uncovered, 0.5), "frac")
        .metric("trace.overhead_frac",
                quantile(traced_round, 0.5) / quantile(un.round_s, 0.5) - 1.0,
                "frac");
    log.write_chrome_json(trace_path);
  }

  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::string e = errors[i];
    std::replace(e.begin(), e.end(), '"', '\'');
    errs += (i ? ",\"" : "\"") + e + "\"";
  }
  errs += "]";
  std::string loss_digest = "";
  if (trace) {
    loss_digest = hex(fnv1a(kFnvBasis, tr.round_loss_bits.data(),
                            tr.round_loss_bits.size() * sizeof(std::uint64_t)));
  }
  JsonObject report;
  report.str("workload", w.name)
      .raw("correct", errors.empty() ? "true" : "false")
      .raw("errors", errs)
      .str("digest", hex(digest))
      .str("round_loss_digest", loss_digest)
      .num("attempted", static_cast<double>(un.transfers))
      .num("failed", static_cast<double>(un.failed))
      .num("passes", static_cast<double>(passes))
      .num("round_samples", static_cast<double>(un.round_s.size()))
      .num("traced_round_samples", static_cast<double>(tr.rounds.size()))
      .num("warmup_s", warmup_s)
      .num("warmup_cells", static_cast<double>(warm.size()))
      .raw("pass_round_ms_p50", json_list(un.pass_p50_s, 1e3))
      .raw("pass_round_ms_p90", json_list(un.pass_p90_s, 1e3))
      .raw("pass_s", json_list(un.pass_s, 1.0))
      .raw("cell_final_loss", json_list(cell_loss, 1.0))
      .num("measured_s", measured_s)
      .num("cpu_s", cpu_s)
      .num("threads", static_cast<double>(core::ThreadPool::global().thread_count()))
      .str("isa", core::simd::to_string(core::simd::active_isa()))
      .raw("metrics", metrics.done());
  std::printf("%s\n", report.done().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if ((mode == "setup" && argc == 4) || (mode == "run" && argc == 7)) {
      const Workload w = make_workload(argv[2], std::stoull(argv[3]));
      core::ThreadPool::set_global_threads(w.threads);
      if (mode == "setup") return cmd_setup(w);
      return cmd_run(w, std::stod(argv[4]), std::string(argv[5]) == "1",
                     argv[6]);
    }
    std::fprintf(stderr,
                 "usage: perfbench setup <workload> <seed>\n"
                 "       perfbench run <workload> <seed> <seconds> <trace 0|1> "
                 "<trace_file>\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
