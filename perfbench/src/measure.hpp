// The benchmark's own arithmetic: medians, the latency histogram, the
// percentile reporting rule, self time and the per-layer reconciliation. Kept free of
// runtime dependencies so tests/selftest.cpp can check it in isolation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// Middle value (mean of the two middle values for an even count); 0 when
/// `values` is empty.
double median(std::vector<double> values);

/// A percentile is reported only when at least `min_tail` samples lie
/// beyond it: p99 needs 1000 samples, p50 needs 20.
bool percentile_supported(uint64_t samples, double pct, uint64_t min_tail = 10);

/// Log-linear histogram of non-negative integers (latencies in ns): exact
/// below 256, then 256 buckets per power of two (2^-8 relative precision).
/// Unlike the runtime's LatencyHistogram it can be exported and merged, so
/// the sink tap of a neptuned worker can hand its samples to the benchmark.
/// Single writer; readers must synchronize with it.
class Histogram {
 public:
  Histogram();
  void record(uint64_t v);
  void merge(const Histogram& other);
  uint64_t count() const { return count_; }
  /// Upper edge of the bucket holding the ceil(pct/100 * count)-th smallest
  /// sample; 0 when empty.
  double percentile(double pct) const;
  /// Non-empty buckets as (index, count) pairs, and the inverse.
  std::vector<std::pair<uint32_t, uint64_t>> buckets() const;
  void add_bucket(uint32_t index, uint64_t n);

  static uint32_t index_of(uint64_t v);
  static uint64_t upper_edge(uint32_t index);

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Time an operator spent in its own code: the time inside its call minus
/// the time inside the Emitter::emit calls it made from there.
int64_t self_ns(int64_t call_ns, int64_t emit_ns);

/// 1 - (sum of the CPU the layers account for) / (CPU the process used).
/// Positive: some CPU is not attributed to any layer; negative: the layers
/// claim more than was spent (double counting or clock skew).
double unattributed_share(double process_cpu_ns, std::span<const double> layer_cpu_ns);

}  // namespace perfbench
