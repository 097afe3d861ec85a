// Metrics registries: named atomic counters and gauges plus fixed-bucket log-scale
// latency histograms with quantile extraction.
//
// Scoping: every event is counted once, in the registry of the instance that owns it.
// A facade, index, service or transport owns a child registry of Global(); process-level
// layers (wire codec, buffer pool, tracer, durability) record into Global() itself.
// Global().Snapshot() merges its own metrics with every live child's by name, and a
// child's destructor folds its counters and histograms into the parent, so the global
// view keeps counting across instance lifetimes. Gauges are live state and die with
// their child.
//
// Hot-path contract: recording (Counter::Inc, Gauge::Add, Histogram::Record) is one
// relaxed atomic RMW — no locks, no allocation. A registry's mutex is taken only at
// registration (owners resolve their references once, at construction), at Snapshot()
// time and when a child links or unlinks. Registered objects live as long as their
// registry; Global() is never destroyed.
//
// Naming convention and the full exported table live in docs/OBSERVABILITY.md; the
// names themselves are constants in support/metric_names.h.
#ifndef HAC_SUPPORT_METRICS_H_
#define HAC_SUPPORT_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hac {

// Metrics are always compiled in; build stamps still report the constant.
inline constexpr bool kMetricsCompiledIn = true;

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket log-scale histogram. Bucket b counts values v with bit_width(v) == b:
// bucket 0 holds exactly v == 0 and bucket b >= 1 holds [2^(b-1), 2^b). 64 buckets
// cover the full uint64 domain, so Record never clamps and never allocates.
// Quantiles interpolate linearly inside the containing bucket, which bounds the
// relative error of any reported quantile by the bucket width (a factor of 2);
// p50/p95/p99 of latency distributions are well inside that in practice.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  // Bucket index for a value; exposed for the boundary unit tests. bit_width is 64
  // for v >= 2^63, so the top bucket absorbs the tail: [2^62, UINT64_MAX].
  static size_t BucketOf(uint64_t v) {
    return std::min(static_cast<size_t>(std::bit_width(v)), kBuckets - 1);
  }
  // Smallest value bucket b can hold (0 for bucket 0, else 2^(b-1)).
  static uint64_t BucketLowerBound(size_t b) {
    return b == 0 ? 0 : (uint64_t{1} << (b - 1));
  }
  // One past the largest value bucket b can hold.
  static uint64_t BucketUpperBound(size_t b) {
    return b >= kBuckets - 1 ? UINT64_MAX : (uint64_t{1} << b);
  }

  uint64_t Count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) {
      n += b.load(std::memory_order_relaxed);
    }
    return n;
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  // Value at quantile q in [0, 1], linearly interpolated within the containing
  // bucket. Concurrent recording makes the answer approximate (counts are read
  // bucket-by-bucket), which is fine for monitoring output.
  double Quantile(double q) const;

  // Largest non-empty bucket's upper bound — a cheap "max is below this" line.
  uint64_t MaxBound() const;

 private:
  friend class MetricsRegistry;
  void ResetForTest() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
  }
  // Adds `other`'s samples to this histogram (merging registries).
  void AddFrom(const Histogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) {
      buckets_[b].fetch_add(other.buckets_[b].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    sum_.fetch_add(other.Sum(), std::memory_order_relaxed);
  }
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

struct HistogramSnapshot {
  std::string name;
  std::string unit;
  uint64_t count = 0;
  uint64_t sum = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  uint64_t max_bound = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;     // sorted by name
  std::vector<HistogramSnapshot> histograms;               // sorted by name
};

class MetricsRegistry {
 public:
  // A registry with no parent (Global(), or a private scratch registry).
  MetricsRegistry() = default;
  // A child of `parent`: links itself under the parent's mutex, so the parent's
  // Snapshot() includes it from now on. The parent must outlive the child.
  explicit MetricsRegistry(MetricsRegistry& parent);
  // A child folds its counters and histograms into the parent's metrics of the same
  // name, then unlinks.
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-global registry. Construction pre-registers every name in
  // support/metric_names.h so snapshots are complete from the first call.
  static MetricsRegistry& Global();

  // Lookup-or-create. The returned reference is valid for the registry's lifetime;
  // resolve it once and keep it on hot paths. `unit` applies to histograms and is
  // recorded once at first registration.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name, const std::string& unit = "us");

  // This registry's metrics merged with its children's by name: counters and gauges
  // sum, histograms sum bucket by bucket.
  MetricsSnapshot Snapshot() const;
  std::vector<std::string> Names() const;  // every metric registered here, sorted

  // Zeroes every registered metric here and in every child (objects stay
  // registered). Tests and benches only — live readers of the same registry see the
  // reset, so nothing that steers the program may read a metric.
  void ResetForTest();

 private:
  // The *Locked members expect the caller to hold mu_.
  Counter& CounterLocked(const std::string& name);
  Gauge& GaugeLocked(const std::string& name);
  Histogram& HistogramLocked(const std::string& name, const std::string& unit);
  // Adds this registry's own metrics into `into` (gauges only when asked).
  void AddOwnLocked(MetricsRegistry& into, bool gauges) const;
  // Adds this registry's metrics and, recursively, its children's into `into`.
  void CollectLocked(MetricsRegistry& into) const;
  MetricsSnapshot OwnSnapshot() const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  MetricsRegistry* parent_ = nullptr;
  std::vector<MetricsRegistry*> children_;  // guarded by mu_
};

// The kIntrospect payload: the full registry snapshot plus tracer state, rendered
// with the shared JsonObject shape (support/json.h). `hacctl stats` prints this
// string verbatim, so the tool and the service request return identical content by
// construction. Schema documented in docs/API.md.
std::string IntrospectStatsJson();

}  // namespace hac

#endif  // HAC_SUPPORT_METRICS_H_
