// Overload resilience, end to end on the threaded runtime: best-effort
// edges shed under pressure per their declared policy, critical edges stay
// lossless no matter what, the shed path is copy-free, and packet
// accounting (delivered + shed == emitted) holds exactly.
#include <gtest/gtest.h>

#include <memory>

#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using workload::BytesSource;
using workload::CountingSink;

constexpr uint64_t kTotal = 20'000;

GraphConfig tight_buffers() {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 8192;
  cfg.channel.low_watermark_bytes = 2048;
  return cfg;
}

ProcessorFactory forward_to(std::shared_ptr<CountingSink> sink) {
  return [sink]() -> std::unique_ptr<StreamProcessor> {
    struct Fwd : StreamProcessor {
      std::shared_ptr<CountingSink> inner;
      explicit Fwd(std::shared_ptr<CountingSink> s) : inner(std::move(s)) {}
      void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
    };
    return std::make_unique<Fwd>(sink);
  };
}

/// Drive one source -> slow sink edge with the given shed policy and return
/// the job's final metrics plus the sink count.
struct ShedRun {
  uint64_t delivered = 0;
  JobMetricsSnapshot metrics;
};

ShedRun run_shedding(ShedConfig shed, int64_t sink_delay_ns = 30'000) {
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto sink = std::make_shared<CountingSink>(sink_delay_ns);
  StreamGraph g("shed", tight_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 120); });
  g.add_processor("sink", forward_to(sink));
  g.connect("src", "sink", nullptr, {}, std::nullopt, QosClass::kBestEffort, shed);

  auto job = rt.submit(g);
  job->start();
  EXPECT_TRUE(job->wait(120s));
  ShedRun r;
  r.delivered = sink->count();
  r.metrics = job->metrics();
  return r;
}

void expect_conserved_and_copy_free(const ShedRun& r) {
  uint64_t shed = r.metrics.total("src", &OperatorMetricsSnapshot::packets_shed);
  // Every emitted packet is either delivered or shed — never both, never
  // neither (and never duplicated).
  EXPECT_EQ(r.delivered + shed, kTotal);
  EXPECT_EQ(r.metrics.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // The shed path releases pooled frames without copying them.
  EXPECT_EQ(r.metrics.total(&OperatorMetricsSnapshot::frame_copies), 0u);
}

TEST(OverloadShedding, DropNewestShedsAtAdmissionUnderPressure) {
  ShedConfig shed;
  shed.policy = ShedPolicy::kDropNewest;
  shed.max_queue_wait_ns = 5'000'000;
  ShedRun r = run_shedding(shed);

  EXPECT_GT(r.metrics.total("src", &OperatorMetricsSnapshot::packets_shed), 0u);
  // Admission drops happen before sequence assignment, so the receiver
  // never observes a gap.
  EXPECT_EQ(r.metrics.total("sink", &OperatorMetricsSnapshot::shed_gaps), 0u);
  expect_conserved_and_copy_free(r);
}

TEST(OverloadShedding, DropOldestReleasesParkedFramesAsGaps) {
  ShedConfig shed;
  shed.policy = ShedPolicy::kDropOldest;
  // At 100 us/packet the full channel takes ~5 ms to drain back to its low
  // watermark, so a parked frame overstays the 0.5 ms budget long before
  // the 1 ms flush timer can retry it — shedding fires even when scheduler
  // load perturbs the timing.
  shed.max_queue_wait_ns = 500'000;
  ShedRun r = run_shedding(shed, /*sink_delay_ns=*/100'000);

  EXPECT_GT(r.metrics.total("src", &OperatorMetricsSnapshot::packets_shed), 0u);
  EXPECT_GT(r.metrics.total("src", &OperatorMetricsSnapshot::batches_shed), 0u);
  // Drop-oldest sheds after sequence assignment: the receiver accounts the
  // missing positions as shed gaps, not contract violations.
  EXPECT_LE(r.metrics.total("sink", &OperatorMetricsSnapshot::shed_gaps),
            r.metrics.total("src", &OperatorMetricsSnapshot::packets_shed));
  expect_conserved_and_copy_free(r);
}

TEST(OverloadShedding, ProbabilisticShedsWhileOverloaded) {
  ShedConfig shed;
  shed.policy = ShedPolicy::kProbabilistic;
  shed.drop_probability = 1.0;  // every admission while overloaded drops
  shed.max_queue_wait_ns = 5'000'000;
  ShedRun r = run_shedding(shed);

  EXPECT_GT(r.metrics.total("src", &OperatorMetricsSnapshot::packets_shed), 0u);
  expect_conserved_and_copy_free(r);
}

/// Forwards every input packet to both output links (0 and 1).
class Tee : public StreamProcessor {
 public:
  void process(StreamPacket& p, Emitter& out) override {
    StreamPacket first = p;
    out.emit(0, std::move(first));
    StreamPacket second = p;
    out.emit(1, std::move(second));
  }
};

TEST(OverloadShedding, CriticalStreamStaysLosslessWhileBestEffortSheds) {
  Runtime rt(1, {.worker_threads = 2, .io_threads = 1});
  auto crit_sink = std::make_shared<CountingSink>();
  auto be_sink = std::make_shared<CountingSink>(/*delay_ns=*/50'000);  // the slow consumer

  StreamGraph g("qos-split", tight_buffers());
  g.add_source("src", [] { return std::make_unique<BytesSource>(kTotal, 120); });
  g.add_processor("tee", [] { return std::make_unique<Tee>(); });
  g.add_processor("crit", forward_to(crit_sink));
  g.add_processor("be", forward_to(be_sink));
  g.connect("src", "tee");
  g.connect("tee", "crit");
  ShedConfig shed;
  shed.policy = ShedPolicy::kDropNewest;
  shed.max_queue_wait_ns = 5'000'000;
  g.connect("tee", "be", nullptr, {}, std::nullopt, QosClass::kBestEffort, shed);

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));

  auto m = job->metrics();
  uint64_t shed_count = m.total("tee", &OperatorMetricsSnapshot::packets_shed);
  // The critical stream delivered everything; the best-effort stream shed
  // under the same load and its accounting still balances.
  EXPECT_EQ(crit_sink->count(), kTotal);
  EXPECT_GT(shed_count, 0u);
  EXPECT_EQ(be_sink->count() + shed_count, kTotal);
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::frame_copies), 0u);
}

TEST(OverloadShedding, CriticalOnlyBackpressuresAndLosesNothing) {
  // Control: the same overloaded topology with a critical (default) link
  // must deliver every packet via backpressure and shed nothing. The sink
  // sits on its own resource so src->sink stays a buffered edge (a
  // same-resource 1->1 critical link would be chained).
  Runtime rt(2, {.worker_threads = 2, .io_threads = 1});
  auto sink = std::make_shared<CountingSink>(/*delay_ns=*/30'000);
  StreamGraph g("critical-control", tight_buffers());
  static constexpr uint64_t kFew = 4000;  // smaller: this run can't shed
  g.add_source("src", [] { return std::make_unique<BytesSource>(kFew, 120); }, 1, 0);
  g.add_processor("sink", forward_to(sink), 1, 1);
  g.connect("src", "sink");

  auto job = rt.submit(g);
  job->start();
  ASSERT_TRUE(job->wait(120s));
  EXPECT_EQ(sink->count(), kFew);
  auto m = job->metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::packets_shed), 0u);
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::shed_gaps), 0u);
  EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::blocked_sends), 0u);
}

}  // namespace
}  // namespace neptune
