// Idle sources park instead of spinning their worker: a source whose next()
// had nothing ready is rerun after kIdleSourceParkNs, not at once. These
// tests check that parking loses and reorders nothing, bounds the source's
// executions, and leaves pause/resume, stop and checkpoint quiescence as
// prompt as before.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <vector>

#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/telemetry.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;

/// Records the emission index (field 0) of every packet it sees.
class IndexLog final : public StreamProcessor {
 public:
  void process(StreamPacket& p, Emitter&) override {
    std::lock_guard lk(mu_);
    ids_.push_back(p.i64(0));
  }
  std::vector<int64_t> ids() const {
    std::lock_guard lk(mu_);
    return ids_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<int64_t> ids_;
};

/// PacedSource -> sink on one resource with one worker: the source is idle
/// between its packets, so it parks.
StreamGraph paced_graph(const std::string& name, double rate_pps, uint64_t total,
                        const std::shared_ptr<IndexLog>& log) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 4096;
  cfg.buffer.flush_interval_ns = 2'000'000;
  StreamGraph g(name, cfg);
  g.add_source("src", [rate_pps, total] {
    workload::PacedSourceConfig pc;
    pc.rate_pps = rate_pps;
    pc.total_packets = total;
    pc.payload_bytes = 16;
    return std::make_unique<workload::PacedSource>(pc);
  });
  g.add_processor("sink", [log]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<IndexLog> inner;
      explicit Fwd(std::shared_ptr<IndexLog> l) : inner(std::move(l)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(log);
  });
  g.connect("src", "sink");
  return g;
}

void expect_each_once_in_order(const std::vector<int64_t>& ids, uint64_t total) {
  ASSERT_EQ(ids.size(), total);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], static_cast<int64_t>(i)) << i;
}

TEST(IdleSource, PacedSourceDeliversEverythingWithBoundedExecutions) {
  constexpr uint64_t kTotal = 400;  // 2k pkt/s: ~200 ms
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  auto log = std::make_shared<IndexLog>();
  auto job = rt.submit(paced_graph("paced", 2000, kTotal, log));
  const auto t0 = std::chrono::steady_clock::now();
  job->start();
  ASSERT_TRUE(job->wait(30s));
  const int64_t elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  expect_each_once_in_order(log->ids(), kTotal);

  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // Each source execution either emits at least one packet or parks for
  // kIdleSourceParkNs; a spinning source would run hundreds of thousands
  // of times here.
  const uint64_t execs = m.total("src", &OperatorMetricsSnapshot::executions);
  const uint64_t bound = static_cast<uint64_t>(elapsed_ns / kIdleSourceParkNs) + kTotal + 16;
  EXPECT_LE(execs, bound) << "elapsed " << elapsed_ns / 1000 << " us";
  const uint64_t parks = m.total("src", &OperatorMetricsSnapshot::idle_parks);
  EXPECT_GT(parks, 0u);
  EXPECT_LT(parks, execs);
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::idle_parks), 0u);

  const std::string prom = obs::TelemetryRegistry::global().render_prometheus();
  EXPECT_NE(prom.find("neptune_operator_idle_parks_total{job=\"paced\",op=\"src\""),
            std::string::npos);
}

TEST(IdleSource, SaturatingSourceNeverParks) {
  // A source with data always ready is throttled by backpressure alone.
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 4096;
  StreamGraph g("saturating", cfg);
  g.add_source("src", [] { return std::make_unique<workload::BytesSource>(20'000, 32); });
  g.add_processor("sink", [] { return std::make_unique<workload::CountingSink>(); });
  g.connect("src", "sink");
  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(30s));
  auto m = job->metrics();
  EXPECT_EQ(m.total("sink", &OperatorMetricsSnapshot::packets_in), 20'000u);
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::idle_parks), 0u);
}

TEST(IdleSource, PauseResumeWithParkedSourceLosesNothing) {
  constexpr uint64_t kTotal = 300;
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  auto log = std::make_shared<IndexLog>();
  auto job = rt.submit(paced_graph("paced-pause", 3000, kTotal, log));
  job->start();
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(15ms);
    auto t0 = std::chrono::steady_clock::now();
    job->pause();
    ASSERT_TRUE(job->quiesce(5s));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
    job->resume();
  }
  ASSERT_TRUE(job->wait(30s));
  expect_each_once_in_order(log->ids(), kTotal);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

TEST(IdleSource, StopWithParkedSourceReturnsPromptly) {
  // An unbounded source at 100 pkt/s is parked nearly all the time.
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto log = std::make_shared<IndexLog>();
  auto job = rt.submit(paced_graph("paced-stop", 100, 0, log));
  job->start();
  std::this_thread::sleep_for(50ms);
  EXPECT_GT(job->metrics().total("src", &OperatorMetricsSnapshot::idle_parks), 0u);
  auto t0 = std::chrono::steady_clock::now();
  job->stop();
  EXPECT_TRUE(job->wait(2s));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(job->metrics().total(&OperatorMetricsSnapshot::seq_violations), 0u);
}

}  // namespace
}  // namespace neptune
