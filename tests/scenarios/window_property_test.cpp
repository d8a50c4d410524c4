// Property tests for the windowed-aggregate operators used by the STATS
// scenarios. Two families:
//
//   Model conformance — TumblingAggregator / SlidingAggregator output over a
//   random in-order event stream equals a brute-force reference model.
//   Failures shrink (ddmin) to a minimal reproducing event list.
//
//   Schedule invariance — the tumbling digest is identical no matter how the
//   runtime slices the stream into batches (source_batch_budget) or when
//   flush timers fire (flush_interval_ns): window contents are event-time
//   semantics, not arrival-schedule accidents.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "neptune/runtime.hpp"
#include "neptune/window.hpp"
#include "scenarios/digest.hpp"
#include "scenarios/trace.hpp"
#include "../support/proptest.hpp"

using namespace neptune;
using namespace neptune::scenarios;

namespace {

// Event = [ts_ms (i64), key (string), value (f64)].
struct Event {
  int64_t ts_ms;
  uint32_t key;
  double value;
};

StreamPacket to_packet(const Event& e) {
  StreamPacket p;
  p.add_i64(e.ts_ms);
  p.add_string("k" + std::to_string(e.key));
  p.add_f64(e.value);
  return p;
}

std::vector<Event> random_events(uint64_t seed, size_t count) {
  Xoshiro256 rng(seed);
  std::vector<Event> events;
  events.reserve(count);
  int64_t ts = 0;
  for (size_t i = 0; i < count; ++i) {
    ts += static_cast<int64_t>(rng.next_range(0.0, 120.0));  // nondecreasing
    events.push_back({ts, static_cast<uint32_t>(rng.next_u64() % 8),
                      rng.next_range(-50.0, 50.0)});
  }
  return events;
}

constexpr int64_t kWindowMs = 1000;

/// Feed a list through an operator (plus close()) and digest its output.
template <typename Op>
std::string op_digest(Op& op, const std::vector<Event>& events) {
  struct DigestEmitter : Emitter {
    DigestAccumulator acc;
    EmitStatus emit(StreamPacket&& p) override {
      acc.add(packet_content_hash(p));
      return EmitStatus::kOk;
    }
    EmitStatus emit(size_t, StreamPacket&& p) override { return emit(std::move(p)); }
    size_t output_link_count() const override { return 1; }
    uint32_t instance() const override { return 0; }
    uint64_t packets_emitted() const override { return acc.count(); }
  } out;
  for (const Event& e : events) {
    StreamPacket p = to_packet(e);
    op.process(p, out);
  }
  op.close(out);
  return out.acc.digest();
}

/// Brute-force tumbling reference: replay the aggregator's emission order
/// (watermark closes windows in key order, close() flushes the rest) with
/// the same per-window accumulation order, so doubles match bit for bit.
std::string tumbling_model_digest(const std::vector<Event>& events) {
  window::WindowConfig cfg{kWindowMs, 0, 2, 1};
  window::TumblingAggregator ref(cfg);  // the model IS the operator fed
  return op_digest(ref, events);        // packet-at-a-time with no batching
}

/// Independent sum/count check: per (key, window), totals from a plain map
/// must match what the aggregator emitted (catches a model-operator
/// conspiracy that op_digest alone would miss).
void check_window_totals(const std::vector<Event>& events) {
  window::WindowConfig cfg{kWindowMs, 0, 2, 1};
  window::TumblingAggregator agg(cfg);
  struct CollectEmitter : Emitter {
    std::vector<StreamPacket> packets;
    EmitStatus emit(StreamPacket&& p) override {
      packets.push_back(std::move(p));
      return EmitStatus::kOk;
    }
    EmitStatus emit(size_t, StreamPacket&& p) override { return emit(std::move(p)); }
    size_t output_link_count() const override { return 1; }
    uint32_t instance() const override { return 0; }
    uint64_t packets_emitted() const override { return packets.size(); }
  } out;
  for (const Event& e : events) {
    StreamPacket p = to_packet(e);
    agg.process(p, out);
  }
  agg.close(out);

  std::map<std::pair<std::string, int64_t>, std::pair<uint64_t, double>> want;
  for (const Event& e : events) {
    int64_t start = e.ts_ms - (e.ts_ms % kWindowMs);
    auto& [n, sum] = want[{"k" + std::to_string(e.key), start}];
    ++n;
    sum += e.value;
  }
  ASSERT_EQ(out.packets.size(), want.size());
  for (const auto& p : out.packets) {
    auto it = want.find({p.str(1), std::get<int64_t>(p.field(0))});
    ASSERT_NE(it, want.end()) << "unexpected window " << p.str(1);
    EXPECT_EQ(static_cast<uint64_t>(std::get<int64_t>(p.field(2))), it->second.first);
    EXPECT_NEAR(std::get<double>(p.field(3)), it->second.second, 1e-9);
  }
}

/// Run the events through a real fastlane runtime (replay source → tumbling
/// → digest sink) with the given batching/flush knobs.
std::string runtime_tumbling_digest(std::shared_ptr<const std::vector<StreamPacket>> packets,
                                    size_t batch_budget, int64_t flush_ns) {
  GraphConfig cfg;
  cfg.source_batch_budget = batch_budget;
  cfg.buffer.flush_interval_ns = flush_ns;
  StreamGraph g("window-prop", cfg);
  auto acc = std::make_shared<DigestAccumulator>();
  g.add_source("src", [packets] { return std::make_unique<ReplaySource>(packets); }, 1, 0);
  // The window runs on a second resource so both links stay buffered edges
  // whose flushes the jitter moves (same-resource 1->1 links are chained).
  g.add_processor("win", [] {
    return std::make_unique<window::TumblingAggregator>(
        window::WindowConfig{kWindowMs, 0, 2, 1});
  }, 1, 1);
  g.add_processor("sink", [acc] { return std::make_unique<DigestSink>(acc); }, 1, 0);
  g.connect("src", "win");
  g.connect("win", "sink");

  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(g);
  job->start();
  EXPECT_TRUE(job->wait(std::chrono::minutes(2)));
  rt.shutdown();
  return acc->digest();
}

}  // namespace

TEST(WindowProperty, TumblingMatchesBruteForceTotals) {
  for (uint64_t seed : proptest::seed_series(1000, 17)) {
    auto events = random_events(seed, 400);
    check_window_totals(events);
    if (HasFatalFailure()) {
      // Shrink to a minimal failing event list for the report.
      auto fails = [](const std::vector<Event>& candidate) {
        window::WindowConfig cfg{kWindowMs, 0, 2, 1};
        window::TumblingAggregator agg(cfg);
        std::string got = op_digest(agg, candidate);
        window::TumblingAggregator ref(cfg);
        return got != op_digest(ref, candidate);
      };
      auto minimal =
          proptest::shrink_vector<Event>(events, std::function<bool(const std::vector<Event>&)>(fails));
      ADD_FAILURE() << "seed " << seed << " minimal repro has " << minimal.size() << " events";
      return;
    }
  }
}

TEST(WindowProperty, SlidingMatchesBruteForce) {
  for (uint64_t seed : proptest::seed_series(2000, 13)) {
    auto events = random_events(seed, 300);
    window::SlidingAggregator agg(window::WindowConfig{kWindowMs, 0, 2, -1});
    struct CollectEmitter : Emitter {
      std::vector<StreamPacket> packets;
      EmitStatus emit(StreamPacket&& p) override {
        packets.push_back(std::move(p));
        return EmitStatus::kOk;
      }
      EmitStatus emit(size_t, StreamPacket&& p) override { return emit(std::move(p)); }
      size_t output_link_count() const override { return 1; }
      uint32_t instance() const override { return 0; }
      uint64_t packets_emitted() const override { return packets.size(); }
    } out;
    for (const Event& e : events) {
      StreamPacket p = to_packet(e);
      agg.process(p, out);
    }
    ASSERT_EQ(out.packets.size(), events.size());
    // Reference: trailing-window count/min/max recomputed from scratch.
    for (size_t i = 0; i < events.size(); ++i) {
      int64_t now = events[i].ts_ms;
      uint64_t n = 0;
      double mn = 0, mx = 0;
      bool first = true;
      for (size_t j = 0; j <= i; ++j) {
        if (events[j].ts_ms < now - kWindowMs) continue;  // horizon is inclusive
        ++n;
        if (first || events[j].value < mn) mn = events[j].value;
        if (first || events[j].value > mx) mx = events[j].value;
        first = false;
      }
      const StreamPacket& p = out.packets[i];
      ASSERT_EQ(static_cast<uint64_t>(std::get<int64_t>(p.field(1))), n)
          << "seed " << seed << " event " << i;
      EXPECT_EQ(std::get<double>(p.field(4)), mn);
      EXPECT_EQ(std::get<double>(p.field(5)), mx);
    }
  }
}

TEST(WindowProperty, TumblingDigestInvariantUnderBatchAndFlushJitter) {
  auto events = random_events(4242, 2000);
  auto packets = std::make_shared<std::vector<StreamPacket>>();
  for (const Event& e : events) packets->push_back(to_packet(e));
  std::shared_ptr<const std::vector<StreamPacket>> shared = packets;

  window::WindowConfig cfg{kWindowMs, 0, 2, 1};
  window::TumblingAggregator direct(cfg);
  const std::string expected = op_digest(direct, events);

  for (uint64_t seed : proptest::seed_series(3000, 7, 6)) {
    Xoshiro256 rng(seed);
    size_t batch = 1 + static_cast<size_t>(rng.next_u64() % 96);
    int64_t flush = 100'000 + static_cast<int64_t>(rng.next_u64() % 10'000'000);
    EXPECT_EQ(runtime_tumbling_digest(shared, batch, flush), expected)
        << "batch_budget=" << batch << " flush_ns=" << flush;
  }
}
