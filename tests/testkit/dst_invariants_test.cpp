// Negative tests for the invariant checkers: inject real faults (frame
// theft, frame corruption) into a running DST job via schedule_fault and
// assert the checkers actually catch the damage — a checker that can't fail
// verifies nothing.
#include "testkit/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "neptune/workload.hpp"
#include "testkit/workloads.hpp"

namespace neptune::testkit {
namespace {

constexpr uint64_t kTotal = 2000;

StreamGraph relay_graph(std::shared_ptr<Collected> bin) {
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 512;
  cfg.buffer.flush_interval_ns = 500'000;
  cfg.source_batch_budget = 32;
  StreamGraph g("dst-faults", cfg);
  g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal, /*payload_bytes=*/32); });
  g.add_processor("sink", [bin] { return std::make_unique<CollectorSink>(bin); });
  g.connect("src", "sink");
  return g;
}

bool any_violation_contains(const DstReport& r, const std::string& needle) {
  for (const auto& v : r.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(DstInvariants, CleanRunHasNoViolations) {
  auto bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 5;
  DstJob job(relay_graph(bin), opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  DstReport r = job.run();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(bin->count, kTotal);
}

TEST(DstInvariants, StolenFrameTripsSequenceChecker) {
  auto bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 5;
  DstJob job(relay_graph(bin), opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  // Steal the first frame found in flight on the single edge: the receiver
  // observes a sequence gap — data was lost in "transit".
  auto stolen = std::make_shared<int>(0);
  for (int64_t t = 100'000; t <= 3'000'000; t += 100'000) {
    job.schedule_fault(t, [&job, stolen] {
      if (*stolen > 0) return;
      if (job.edge_channel(0)->try_receive()) ++*stolen;
    });
  }
  DstReport r = job.run();
  ASSERT_GT(*stolen, 0) << "fault never landed; tune fault times";
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "seq_violations")) << r.summary();
}

TEST(DstInvariants, CorruptedFrameIsDetectedAndReported) {
  auto bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 5;
  DstJob job(relay_graph(bin), opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  // Pull a frame off the wire, flip a payload byte, and push it back: the
  // receiver's CRC must reject it and the harness must surface the drop.
  auto corrupted = std::make_shared<int>(0);
  for (int64_t t = 100'000; t <= 3'000'000; t += 100'000) {
    job.schedule_fault(t, [&job, corrupted] {
      if (*corrupted > 0) return;
      auto ch = job.edge_channel(0);
      auto frame = ch->try_receive();
      if (!frame || frame->size() < 30) return;
      (*frame)[25] ^= 0xFF;  // payload byte: CRC mismatch, framing intact
      ch->try_send(*frame);
      ++*corrupted;
    });
  }
  DstReport r = job.run();
  ASSERT_GT(*corrupted, 0) << "fault never landed; tune fault times";
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "corrupt frame")) << r.summary();
}

TEST(DstInvariants, ExactlyOnceCheckerFlagsStateDrift) {
  // Reference state from a clean run...
  auto ref_bin = std::make_shared<Collected>();
  DstOptions opts;
  opts.seed = 11;
  DstJob ref(relay_graph(ref_bin), opts);
  ASSERT_TRUE(ref.run().completed);
  JobSnapshot expected = ref.state_snapshot();

  // ...must match another clean run of the same workload...
  {
    DstJob job(relay_graph(std::make_shared<Collected>()), opts);
    job.add_checker(make_exactly_once_checker(expected));
    DstReport r = job.run();
    EXPECT_TRUE(r.ok()) << r.summary();
  }

  // ...and must NOT match a run that lost a frame.
  {
    DstJob job(relay_graph(std::make_shared<Collected>()), opts);
    job.add_checker(make_exactly_once_checker(expected));
    auto stolen = std::make_shared<int>(0);
    for (int64_t t = 100'000; t <= 3'000'000; t += 100'000) {
      job.schedule_fault(t, [&job, stolen] {
        if (*stolen > 0) return;
        if (job.edge_channel(0)->try_receive()) ++*stolen;
      });
    }
    DstReport r = job.run();
    ASSERT_GT(*stolen, 0);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(any_violation_contains(r, "exactly-once")) << r.summary();
  }
}

TEST(DstIdleSource, PacedSourceParksOnTheVirtualClock) {
  // The runtime's wall-clock PacedSource: most executions find nothing due,
  // and the model parks them for kIdleSourceParkNs of virtual time, as the
  // runtime does. Wall-paced, so the schedule is not seed-replayable; the
  // delivery and the execution bound are.
  constexpr uint64_t kPaced = 400;  // 20k pkt/s: ~20 ms of wall time
  auto bin = std::make_shared<Collected>();
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 512;
  cfg.buffer.flush_interval_ns = 500'000;
  cfg.source_batch_budget = 32;
  StreamGraph g("dst-paced", cfg);
  g.add_source("src", [] {
    workload::PacedSourceConfig pc;
    pc.rate_pps = 20'000;
    pc.total_packets = kPaced;
    pc.payload_bytes = 16;
    return std::make_unique<workload::PacedSource>(pc);
  });
  g.add_processor("sink", [bin] { return std::make_unique<CollectorSink>(bin); });
  g.connect("src", "sink");
  DstOptions opts;
  opts.seed = 3;
  DstJob job(g, opts);
  job.add_checkers(default_checkers(CapacityLimits{96, 32}));
  DstReport r = job.run();
  ASSERT_TRUE(r.ok()) << r.summary();
  ASSERT_EQ(bin->ids.size(), kPaced);
  for (size_t i = 0; i < bin->ids.size(); ++i) ASSERT_EQ(bin->ids[i], static_cast<int64_t>(i));

  const OperatorMetricsSnapshot src = job.metrics()[0];
  ASSERT_EQ(src.operator_id, "src");
  EXPECT_GT(src.idle_parks, 0u);
  // Every execution either emits or parks for kIdleSourceParkNs of virtual
  // time, so virtual time bounds the parks.
  EXPECT_LE(src.idle_parks, static_cast<uint64_t>(r.virtual_ns / kIdleSourceParkNs) + 1);
  EXPECT_LE(src.executions, src.idle_parks + kPaced + 2);
}

}  // namespace
}  // namespace neptune::testkit
