#include "measure.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

bool percentile_supported(uint64_t samples, double pct, uint64_t min_tail) {
  // Samples strictly beyond the pct-th percentile: floor(n * (1 - pct/100)),
  // computed in integer hundredths of a percent to avoid 0.99 * n rounding.
  const uint64_t beyond_bp = 10000 - static_cast<uint64_t>(pct * 100 + 0.5);
  return samples * beyond_bp / 10000 >= min_tail;
}

namespace {
constexpr uint32_t kSubBits = 8;
constexpr uint32_t kSub = 1u << kSubBits;
constexpr uint32_t kBuckets = kSub + (64 - kSubBits) * kSub;
}  // namespace

Histogram::Histogram() : counts_(kBuckets, 0) {}

uint32_t Histogram::index_of(uint64_t v) {
  if (v < kSub) return static_cast<uint32_t>(v);
  const uint32_t e = 63u - static_cast<uint32_t>(__builtin_clzll(v));  // e >= kSubBits
  const uint32_t sub = static_cast<uint32_t>(v >> (e - kSubBits)) & (kSub - 1);
  return kSub + (e - kSubBits) * kSub + sub;
}

uint64_t Histogram::upper_edge(uint32_t index) {
  if (index < kSub) return index;
  const uint32_t e = (index - kSub) / kSub + kSubBits;
  const uint64_t sub = (index - kSub) % kSub;
  const uint64_t lower = (kSub + sub) << (e - kSubBits);
  return lower + ((uint64_t{1} << (e - kSubBits)) - 1);
}

void Histogram::record(uint64_t v) {
  ++counts_[index_of(v)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (uint32_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::percentile(double pct) const {
  if (count_ == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (uint32_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) return static_cast<double>(upper_edge(i));
  }
  return static_cast<double>(upper_edge(kBuckets - 1));
}

std::vector<std::pair<uint32_t, uint64_t>> Histogram::buckets() const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (uint32_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] != 0) out.emplace_back(i, counts_[i]);
  }
  return out;
}

void Histogram::add_bucket(uint32_t index, uint64_t n) {
  if (index >= kBuckets) return;
  counts_[index] += n;
  count_ += n;
}

int64_t self_ns(int64_t call_ns, int64_t emit_ns) { return call_ns - emit_ns; }

double unattributed_share(double process_cpu_ns, std::span<const double> layer_cpu_ns) {
  if (process_cpu_ns <= 0) return 0;
  double sum = 0;
  for (double v : layer_cpu_ns) sum += v;
  return 1.0 - sum / process_cpu_ns;
}

}  // namespace perfbench
