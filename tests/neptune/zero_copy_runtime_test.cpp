// End-to-end zero-copy assertions: an all-inproc relay job must move every
// inbound frame by reference (frame_copies == 0), dispatch batches as
// views, and route every send through the SPSC fast lane. This is the
// acceptance gate for the pooled-frame hot path — if any layer silently
// reintroduces a copy, these counters move and the test fails.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/frame_buf.hpp"
#include "net/tcp_transport.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/telemetry.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using workload::BytesSource;
using workload::CountingSink;
using workload::RelayProcessor;

GraphConfig small_buffers() {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 4096;
  cfg.buffer.flush_interval_ns = 2'000'000;
  return cfg;
}

TEST(ZeroCopyRuntime, InprocRelayNeverCopiesAFrame) {
  Runtime rt(/*resources=*/2, {.worker_threads = 1, .io_threads = 1});
  auto sink = std::make_shared<CountingSink>();
  StreamGraph g("zero_copy_relay", small_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(20000, 100); }, 1, 0);
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
      bool prefers_batches() const override { return true; }
      void on_batch(BatchView& b, Emitter& out) override { inner->on_batch(b, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 0);
  g.connect("src", "relay");
  g.connect("relay", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(sink->count(), 20000u);

  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // The zero-copy contract: inproc edges deliver whole pooled frames, so
  // no stage ever copies payload bytes on receive.
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::frame_copies), 0u);
  // Both processors opted into batch views; every batch goes through
  // on_batch, and the relay's view re-emit decodes no string/bytes fields.
  EXPECT_GT(m.total("relay", &OperatorMetricsSnapshot::batch_dispatches), 0u);
  EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::batch_dispatches), 0u);
  EXPECT_EQ(m.total("relay", &OperatorMetricsSnapshot::serde_alloc_bytes), 0u);
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::serde_alloc_bytes), 0u);
  EXPECT_EQ(m.total("relay", &OperatorMetricsSnapshot::packets_in), 20000u);
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::packets_in), 20000u);
}

/// Same relay shape as the inproc test but carried over real loopback TCP:
/// the zero-copy contract must hold end to end through the socket. Outbound
/// frames ride the pinned-ref scatter-gather path (no staging copies) and
/// inbound frames are carved as views over pooled recv chunks, so the
/// runtime still never copies a frame on receive.
void run_tcp_relay_zero_copy(bool supervised) {
  TcpTransportStats& ts = TcpTransportStats::global();
  const uint64_t tx_copies0 = ts.tx_copies.load(std::memory_order_relaxed);
  const uint64_t rx_frames0 = ts.rx_frames.load(std::memory_order_relaxed);

  RuntimeOptions opt;
  opt.cross_resource_transport = EdgeTransport::kTcp;
  opt.supervise_tcp = supervised;
  Runtime rt(/*resources=*/2, {.worker_threads = 1, .io_threads = 1}, opt);
  auto sink = std::make_shared<CountingSink>();
  StreamGraph g("tcp_zero_copy_relay", small_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(20000, 100); }, 1, 0);
  g.add_processor("relay", [] { return std::make_unique<RelayProcessor>(); }, 1, 1);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
      bool prefers_batches() const override { return true; }
      void on_batch(BatchView& b, Emitter& out) override { inner->on_batch(b, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 1, 0);
  g.connect("src", "relay");
  g.connect("relay", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), 20000u);

  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // The acceptance gate: TCP edges deliver exact-frame views over pooled
  // recv chunks, so no stage copies payload bytes on receive.
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::frame_copies), 0u);
  EXPECT_EQ(m.total("relay", &OperatorMetricsSnapshot::serde_alloc_bytes), 0u);
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::serde_alloc_bytes), 0u);
  // Every outbound frame (data, heartbeats, acks) entered as a pinned ref:
  // the copying span path was never taken.
  EXPECT_EQ(ts.tx_copies.load(std::memory_order_relaxed), tx_copies0);
  // And the receive side actually carved frames from pooled chunks.
  EXPECT_GT(ts.rx_frames.load(std::memory_order_relaxed), rx_frames0);
}

TEST(ZeroCopyRuntime, TcpRelayNeverCopiesAFrame) {
  run_tcp_relay_zero_copy(/*supervised=*/true);
}

TEST(ZeroCopyRuntime, RawTcpRelayNeverCopiesAFrame) {
  run_tcp_relay_zero_copy(/*supervised=*/false);
}

TEST(ZeroCopyRuntime, FastlaneRatioGaugeReportsOne) {
  // Both deployments share one planner, so a slice-local edge registers the
  // same gauge as a submit() edge. Two sink instances keep src->sink a
  // buffered same-resource edge (a 1->1 link would be chained).
  for (bool slice : {false, true}) {
    SCOPED_TRACE(slice ? "submit_slice" : "submit");
    Runtime rt(/*resources=*/1, {.worker_threads = 1, .io_threads = 1});
    auto sink = std::make_shared<CountingSink>();
    StreamGraph g(slice ? "fastlane_gauge_slice" : "fastlane_gauge", small_buffers());
    g.add_source("src", [] { return std::make_unique<BytesSource>(5000, 64); }, 1, 0);
    g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
      struct Fwd : StreamProcessor {
        std::shared_ptr<CountingSink> inner;
        explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
        void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
      };
      return std::make_unique<Fwd>(sink);
    }, 2, 0);
    g.connect("src", "sink");

    // Default SliceOptions: local resource 0 of total_resources 1.
    auto job = slice ? rt.submit_slice(g, SliceOptions{}) : rt.submit(g);
    job->start();
    ASSERT_TRUE(job->wait(60s));
    EXPECT_EQ(sink->count(), 5000u);

    // Every inproc send took the SPSC fast lane with a pooled frame.
    obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
    const std::pair<std::string, std::string> job_label{"job", g.name()};
    bool found = false;
    for (const auto& sample : reg.sample().values) {
      auto desc = reg.descriptor(sample.series);
      if (desc && desc->name == "neptune_inproc_fastlane_ratio" &&
          std::find(desc->labels.begin(), desc->labels.end(), job_label) != desc->labels.end()) {
        found = true;
        EXPECT_DOUBLE_EQ(sample.value, 1.0);
      }
    }
    EXPECT_TRUE(found) << "fastlane gauge not registered for job " << g.name();
  }
}

TEST(ZeroCopyRuntime, LegacyPerPacketOperatorsStillWork) {
  // A processor that does NOT opt into batches exercises the lazy
  // scratch-packet decode path over the same pooled frames. Two sink
  // instances keep src->sink a buffered edge (a 1->1 link would be chained).
  Runtime rt(/*resources=*/1, {.worker_threads = 1, .io_threads = 1});
  auto sink = std::make_shared<CountingSink>();
  StreamGraph g("legacy_decode", small_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(5000, 64); }, 1, 0);
  g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  }, 2, 0);
  g.connect("src", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(60s));
  EXPECT_EQ(sink->count(), 5000u);
  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::frame_copies), 0u);
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::batch_dispatches), 0u);
  // BytesSource payloads are bytes fields: the legacy path heap-copies them
  // into the scratch packet, and the counter must see that.
  EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::serde_alloc_bytes), 0u);
}

TEST(FrameBufPool, RecyclesAndCountsBuffers) {
  FrameBufPool pool(/*max_idle=*/4);
  const FrameBuf* first;
  {
    FrameBufRef a = pool.acquire();
    a->buffer().write_u32(42);
    first = a.get();
  }  // released -> recycled into the pool
  FrameBufRef b = pool.acquire();
  EXPECT_EQ(b.get(), first);    // same object came back
  EXPECT_EQ(b->size(), 0u);     // cleared on reacquire
  auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.recycled, 1u);
  EXPECT_EQ(stats.created, 1u);
}

TEST(FrameBufPool, RefcountSharingKeepsBufferAlive) {
  FrameBufPool pool(4);
  FrameBufRef a = pool.acquire();
  a->buffer().write_u64(7);
  FrameBufRef b = a;  // retain
  a.reset();
  ASSERT_NE(b.get(), nullptr);
  EXPECT_EQ(b->size(), 8u);  // still alive and intact via the second ref
  b.reset();
  EXPECT_EQ(pool.idle_count(), 1u);  // returned to the free list exactly once
}

TEST(FrameBufRef, SliceIsWindowRelativeAndClamped) {
  FrameBufPool pool(4);
  FrameBufRef chunk = pool.acquire();
  for (uint8_t i = 0; i < 100; ++i) chunk->buffer().write_u8(i);

  FrameBufRef a = chunk.slice(10, 20);  // bytes [10, 30)
  ASSERT_EQ(a.size(), 20u);
  EXPECT_TRUE(a.windowed());
  EXPECT_EQ(a.offset(), 10u);
  EXPECT_EQ(a.contents().front(), 10);
  EXPECT_EQ(a.contents().back(), 29);
  // Views share the underlying bytes, not a copy.
  EXPECT_EQ(a.contents().data(), chunk.contents().data() + 10);

  // Slicing a slice is relative to the inner window.
  FrameBufRef b = a.slice(5, 10);  // bytes [15, 25)
  EXPECT_EQ(b.offset(), 15u);
  EXPECT_EQ(b.contents().front(), 15);
  EXPECT_EQ(b.contents().back(), 24);

  // Out-of-range requests clamp instead of reading past the window.
  EXPECT_EQ(a.slice(15, 100).size(), 5u);
  EXPECT_EQ(a.slice(200, 10).size(), 0u);
  // The full-buffer handle reports no window.
  EXPECT_FALSE(chunk.windowed());
  EXPECT_EQ(chunk.size(), 100u);
}

TEST(FrameBufRef, SliceKeepsChunkPinnedUntilLastViewDrops) {
  // The TCP receive path hands out many frame views over one recv chunk;
  // the chunk must stay out of the pool until every view is released —
  // in any release order.
  FrameBufPool pool(4);
  FrameBufRef chunk = pool.acquire();
  chunk->buffer().write_u64(0xAB);
  FrameBufRef v1 = chunk.slice(0, 4);
  FrameBufRef v2 = chunk.slice(4, 4);
  chunk.reset();  // the "whole chunk" handle drops first
  EXPECT_EQ(pool.idle_count(), 0u);
  v1.reset();
  EXPECT_EQ(pool.idle_count(), 0u);
  EXPECT_EQ(v2.contents().size(), 4u);  // survivor still reads valid bytes
  v2.reset();
  EXPECT_EQ(pool.idle_count(), 1u);  // recycled exactly once, after the last view
}

TEST(FrameBufPool, AdoptWrapsVectorWithoutCopying) {
  std::vector<uint8_t> payload(128, 0xCD);
  const uint8_t* data = payload.data();
  FrameBufRef f = FrameBufPool::global().adopt(std::move(payload));
  EXPECT_EQ(f->contents().data(), data);  // zero-copy adoption
  EXPECT_EQ(f->size(), 128u);
}

}  // namespace
}  // namespace neptune
