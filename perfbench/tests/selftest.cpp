// Self-tests for the benchmark's own arithmetic (src/measure.hpp) and the
// relay check of its sink tap (src/probes.hpp). Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.hpp"
#include "probes.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

struct RelayCheck {
  bool exact;
  uint64_t failed;
};

/// The relay check of a sequence-checking tap fed `seqs`, each one
/// millisecond after its event time, for a relay of `events` packets.
RelayCheck relay(const std::vector<int64_t>& seqs, uint64_t events, int64_t limit_ns = 0) {
  perfbench::TapStats tap(limit_ns, true);
  int64_t now = 1'000'000'000;
  for (int64_t s : seqs) {
    now += 1'000'000;
    tap.on_packet(now, now - 1'000'000, s);
  }
  return {tap.delivered_exactly(events), tap.failed(events)};
}

}  // namespace

int main() {
  using namespace perfbench;

  // Self time is the time inside the call minus the time inside its emits.
  expect(self_ns(1000, 300) == 700, "self = call - emit");
  expect(self_ns(500, 0) == 500, "self without emits = call");
  expect(self_ns(400, 400) == 0, "an operator that only emits has no self time");

  // Reconciliation: layers that add up to the process CPU leave nothing
  // unattributed; a missing layer shows as a positive share, double
  // counting as a negative one.
  const double full[] = {600, 300, 100};
  expect(near(unattributed_share(1000, full), 0.0), "layers summing to process CPU");
  const double part[] = {600, 300};
  expect(near(unattributed_share(1000, part), 0.1), "10% unattributed");
  const double over[] = {600, 300, 200};
  expect(near(unattributed_share(1000, over), -0.1), "layers over-claiming");
  expect(near(unattributed_share(0, full), 0.0), "no process CPU");

  // A percentile is reported only with at least ten samples beyond it.
  expect(percentile_supported(1000, 99), "p99 of 1000 samples: 10 beyond");
  expect(!percentile_supported(999, 99), "p99 of 999 samples: 9 beyond");
  expect(percentile_supported(20, 50), "p50 of 20 samples");
  expect(!percentile_supported(19, 50), "p50 of 19 samples");
  expect(percentile_supported(10000, 99.9), "p99.9 of 10000 samples");
  expect(!percentile_supported(9999, 99.9), "p99.9 of 9999 samples");
  expect(!percentile_supported(0, 50), "no samples");

  // Repetitions reduce to their median.
  expect(near(median({3, 1, 2}), 2.0), "odd median");
  expect(near(median({4, 1, 3, 2}), 2.5), "even median");
  expect(near(median({}), 0.0), "empty median");

  // The relay check: exactly 0 .. N-1, each once and in order, passes;
  // anything else fails and counts its bad events, at most N.
  const RelayCheck exact = relay({0, 1, 2}, 3);
  expect(exact.exact && exact.failed == 0, "relay delivered exactly");
  const RelayCheck dup = relay({0, 1, 1, 2}, 3);
  expect(!dup.exact && dup.failed == 1, "a duplicate fails the relay and counts once");
  const RelayCheck lost = relay({0, 2}, 3);
  expect(!lost.exact && lost.failed >= 1, "a lost packet fails the relay");
  const RelayCheck reordered = relay({0, 2, 1}, 3);
  expect(!reordered.exact && reordered.failed >= 1, "a reordered packet fails the relay");
  const RelayCheck short_tail = relay({0, 1}, 3);
  expect(!short_tail.exact && short_tail.failed == 1, "a missing tail fails the relay");
  expect(relay({0, 1, 1, 1, 1, 1}, 3).failed == 3, "failed is at most the events sent");
  const RelayCheck late = relay({0, 1, 2}, 3, 500'000);
  expect(late.exact && late.failed == 3, "late packets are failed");

  // Histogram: bucket edges bound every value within 2^-8, percentiles
  // pick the right rank, and merging or exporting loses nothing.
  bool edges_ok = true;
  for (uint64_t v : {0ull, 1ull, 255ull, 256ull, 257ull, 1000ull, 123456789ull, 1ull << 40}) {
    const uint64_t up = Histogram::upper_edge(Histogram::index_of(v));
    edges_ok = edges_ok && up >= v && static_cast<double>(up) <= v * (1 + 1.0 / 256) + 1;
  }
  expect(edges_ok, "bucket upper edge within 2^-8 of the value");
  Histogram all, low, high;
  for (uint64_t v = 1; v <= 1000; ++v) {
    all.record(v * 1000);
    (v <= 500 ? low : high).record(v * 1000);
  }
  expect(all.count() == 1000, "histogram count");
  expect(std::fabs(all.percentile(50) - 500'000) <= 500'000 / 256.0 + 1, "histogram p50");
  expect(std::fabs(all.percentile(99) - 990'000) <= 990'000 / 256.0 + 1, "histogram p99");
  low.merge(high);
  expect(low.percentile(50) == all.percentile(50) && low.percentile(99) == all.percentile(99) &&
             low.count() == all.count(),
         "merged halves equal the whole");
  Histogram copy;
  for (const auto& [index, n] : all.buckets()) copy.add_bucket(index, n);
  expect(copy.percentile(99) == all.percentile(99) && copy.count() == all.count(),
         "export round trip");
  expect(Histogram().percentile(50) == 0, "empty histogram");

  if (failures == 0) std::fprintf(stderr, "perfbench self-tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
