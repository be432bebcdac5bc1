#include "core/metrics.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace trimgrad::core {
namespace {

// Registries are identified by a process-unique id, not their address, so a
// thread's cached shard pointer can never alias a new registry that happens
// to be allocated where a destroyed one used to live.
std::atomic<std::uint64_t> g_next_registry_id{1};

}  // namespace

thread_local MetricsRegistry::LastShard MetricsRegistry::tl_last_;

inline MetricsRegistry::Shard& MetricsRegistry::local_shard() noexcept {
  // The acquire pairs with the registration's release, so a handle this
  // thread was given is always covered once the generations match.
  Shard* shard = tl_last_.shard;
  if (tl_last_.registry == instance_id_ &&
      shard->generation == generation_.load(std::memory_order_acquire)) {
    return *shard;
  }
  return local_shard_slow();
}

void Counter::add(std::uint64_t delta) const noexcept {
  if (reg_ == nullptr) return;
  MetricsRegistry::Shard& shard = reg_->local_shard();
  shard.counters[id_] += delta;
}

void Gauge::set(double value) const noexcept {
  if (reg_ == nullptr) return;
  std::lock_guard<std::mutex> lock(reg_->mu_);
  reg_->gauge_values_[id_] = value;
}

void Histogram::observe(double value) const noexcept {
  if (reg_ == nullptr) return;
  // "le" semantics: first bucket whose upper bound is >= value; anything
  // beyond the last bound lands in the overflow bucket at bounds.size().
  const std::vector<double>& bounds = *bounds_;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  MetricsRegistry::Shard& shard = reg_->local_shard();
  shard.hists[id_][bucket] += 1;
}

MetricsRegistry::MetricsRegistry()
    : instance_id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::local_shard_slow() noexcept {
  // Another registry than the last one: each thread keeps one shard pointer
  // per registry instance id. The map is tiny and only grows; shards are
  // owned by the registry and survive thread exit.
  if (tl_last_.registry != instance_id_) {
    static thread_local std::unordered_map<std::uint64_t, Shard*> tl_shards;
    Shard*& cached = tl_shards[instance_id_];
    if (cached == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      shards_.push_back(std::make_unique<Shard>());
      cached = shards_.back().get();
      grow_locked(*cached);
    }
    tl_last_ = {instance_id_, cached};
  }
  // Registrations since this shard was last sized: grow it under the lock
  // so a concurrent snapshot() never sees a torn resize.
  Shard& shard = *tl_last_.shard;
  if (shard.generation != generation_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    grow_locked(shard);
  }
  return shard;
}

void MetricsRegistry::grow_locked(Shard& shard) const {
  shard.counters.resize(counter_names_.size(), 0);
  shard.hists.resize(hists_.size());
  for (std::size_t h = 0; h < hists_.size(); ++h) {
    if (shard.hists[h].empty()) {
      shard.hists[h].assign(hists_[h]->bounds.size() + 1, 0);
    }
  }
  shard.generation = generation_.load(std::memory_order_relaxed);
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return Counter(this, i);
  }
  counter_names_.emplace_back(name);
  generation_.fetch_add(1, std::memory_order_release);
  return Counter(this, counter_names_.size() - 1);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return Gauge(this, i);
  }
  gauge_names_.emplace_back(name);
  gauge_values_.push_back(0.0);
  return Gauge(this, gauge_names_.size() - 1);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i]->name == name) {
      return Histogram(this, i, &hists_[i]->bounds);
    }
  }
  std::sort(upper_bounds.begin(), upper_bounds.end());
  auto info = std::make_unique<HistInfo>();
  info->name = std::string(name);
  info->bounds = std::move(upper_bounds);
  hists_.push_back(std::move(info));
  generation_.fetch_add(1, std::memory_order_release);
  const std::size_t id = hists_.size() - 1;
  return Histogram(this, id, &hists_[id]->bounds);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters[i].name = counter_names_[i];
  }
  snap.gauges.resize(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges[i].name = gauge_names_[i];
    snap.gauges[i].value = gauge_values_[i];
  }
  snap.histograms.resize(hists_.size());
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    snap.histograms[i].name = hists_[i]->name;
    snap.histograms[i].bounds = hists_[i]->bounds;
    snap.histograms[i].counts.assign(hists_[i]->bounds.size() + 1, 0);
  }
  // Integer sums over shards: associative + commutative, so the result does
  // not depend on how many shards (threads) contributed.
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < shard->counters.size(); ++i) {
      snap.counters[i].value += shard->counters[i];
    }
    for (std::size_t h = 0; h < shard->hists.size(); ++h) {
      for (std::size_t b = 0; b < shard->hists[h].size(); ++b) {
        snap.histograms[h].counts[b] += shard->hists[h][b];
      }
    }
  }
  for (auto& hist : snap.histograms) {
    for (std::uint64_t c : hist.counts) hist.total += c;
  }
  return snap;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& shard : shards_) {
    std::fill(shard->counters.begin(), shard->counters.end(), 0);
    for (auto& hist : shard->hists) std::fill(hist.begin(), hist.end(), 0);
  }
  std::fill(gauge_values_.begin(), gauge_values_.end(), 0.0);
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked so instrumentation in static destructors can never touch a dead
  // registry.
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

}  // namespace trimgrad::core
