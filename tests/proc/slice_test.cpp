// Slice planning: the deterministic decomposition every process of a
// multi-process deployment must independently agree on. The tests pin the
// canonical cross-edge enumeration order (graph link order, then source
// instance, then destination instance) — the supervisor's flat port list is
// paired to it positionally, so any reordering is a wire-protocol break.
//
// SliceDeploy.* deploy both halves of a two-resource graph with
// Runtime::submit_slice into two Runtimes of this one process, joined by
// supervised TCP on planned loopback ports — the multi-process data path
// without fork/exec. NEPTUNE_SCENARIO_DIR is injected by the build.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <numeric>

#include "neptune/workload.hpp"
#include "proc/slice.hpp"
#include "scenarios/scenario.hpp"
#include "testkit/workloads.hpp"

namespace neptune::proc {
namespace {

using namespace std::chrono_literals;
using workload::BytesSource;
using workload::RelayProcessor;

StreamGraph pinned_graph() {
  // src(2 instances, r0) -> mid(2 instances, r1) -> sink(1 instance, r0)
  StreamGraph g("sliced");
  g.add_source("src", [] { return std::make_unique<BytesSource>(10, 16); }, 2, 0);
  g.add_processor("mid", [] { return std::make_unique<RelayProcessor>(); }, 2, 1);
  g.add_processor("sink", [] { return std::make_unique<RelayProcessor>(); }, 1, 0);
  g.connect("src", "mid");
  g.connect("mid", "sink");
  return g;
}

TEST(SlicePlan, EnumeratesCrossEdgesInCanonicalOrder) {
  SlicePlan plan = plan_slices(pinned_graph(), 2);
  // src->mid: 2x2 instances cross r0->r1; mid->sink: 2x1 cross r1->r0.
  ASSERT_EQ(plan.cross_edges.size(), 6u);
  ASSERT_EQ(plan.total_resources, 2u);

  auto edge = [&](size_t i) { return plan.cross_edges[i]; };
  // Link 0 first, source instance outer, destination instance inner.
  EXPECT_EQ(edge(0).link_id, 0u);
  EXPECT_EQ(edge(0).src_instance, 0u);
  EXPECT_EQ(edge(0).dst_instance, 0u);
  EXPECT_EQ(edge(1).src_instance, 0u);
  EXPECT_EQ(edge(1).dst_instance, 1u);
  EXPECT_EQ(edge(2).src_instance, 1u);
  EXPECT_EQ(edge(2).dst_instance, 0u);
  EXPECT_EQ(edge(3).src_instance, 1u);
  EXPECT_EQ(edge(3).dst_instance, 1u);
  EXPECT_EQ(edge(4).link_id, 1u);
  EXPECT_EQ(edge(5).link_id, 1u);
  EXPECT_EQ(edge(4).src_resource, 1u);
  EXPECT_EQ(edge(4).dst_resource, 0u);

  // Replanning from the same graph yields the identical enumeration — the
  // property that lets N processes derive the port map with no handshake.
  SlicePlan replan = plan_slices(pinned_graph(), 2);
  ASSERT_EQ(replan.cross_edges.size(), plan.cross_edges.size());
  for (size_t i = 0; i < plan.cross_edges.size(); ++i) {
    EXPECT_EQ(replan.cross_edges[i].link_id, plan.cross_edges[i].link_id);
    EXPECT_EQ(replan.cross_edges[i].src_instance, plan.cross_edges[i].src_instance);
    EXPECT_EQ(replan.cross_edges[i].dst_instance, plan.cross_edges[i].dst_instance);
  }
}

TEST(SlicePlan, LocalEdgesAreNotEnumerated) {
  StreamGraph g("local");
  g.add_source("src", [] { return std::make_unique<BytesSource>(10, 16); }, 2, 0);
  g.add_processor("sink", [] { return std::make_unique<RelayProcessor>(); }, 2, 0);
  g.connect("src", "sink");
  // Single-process deployment: nothing crosses.
  SlicePlan plan = plan_slices(g, 1);
  EXPECT_TRUE(plan.cross_edges.empty());
}

TEST(SlicePlan, SliceOptionsMapPortsBackToEdges) {
  SlicePlan plan = plan_slices(pinned_graph(), 2);
  for (size_t i = 0; i < plan.cross_edges.size(); ++i)
    plan.ports.push_back(static_cast<uint16_t>(20000 + i));

  SliceOptions r0 = slice_options_for(plan, 0);
  SliceOptions r1 = slice_options_for(plan, 1);
  EXPECT_EQ(r0.local_resource, 0u);
  EXPECT_EQ(r1.local_resource, 1u);
  // Both processes see the *full* edge->port map (each needs its own side
  // of every cross edge), keyed (link, src_instance, dst_instance).
  ASSERT_EQ(r0.edge_ports.size(), 6u);
  EXPECT_EQ(r0.edge_ports, r1.edge_ports);
  EXPECT_EQ(r0.edge_ports.at({0, 0, 0}), 20000);
  EXPECT_EQ(r0.edge_ports.at({0, 1, 1}), 20003);
  EXPECT_EQ(r0.edge_ports.at({1, 1, 0}), 20005);
}

TEST(SlicePlan, PortCountMismatchThrows) {
  SlicePlan plan = plan_slices(pinned_graph(), 2);
  plan.ports = {20000, 20001};  // 6 edges, 2 ports
  EXPECT_THROW(slice_options_for(plan, 0), GraphError);
}

TEST(SlicePlan, ResourceOutOfRangeThrows) {
  SlicePlan plan = plan_slices(pinned_graph(), 2);
  for (size_t i = 0; i < plan.cross_edges.size(); ++i)
    plan.ports.push_back(static_cast<uint16_t>(20000 + i));
  EXPECT_THROW(slice_options_for(plan, 2), GraphError);
}

TEST(SliceLint, FlagsUnpinnedOperators) {
  StreamGraph g("unpinned");
  g.add_source("src", [] { return std::make_unique<BytesSource>(10, 16); }, 1, 0);
  g.add_processor("sink", [] { return std::make_unique<RelayProcessor>(); });  // no pin
  g.connect("src", "sink");
  auto findings = lint_slices(g, 2);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("sink"), std::string::npos);
  EXPECT_THROW(plan_slices(g, 2), GraphError);
}

TEST(SliceLint, FlagsPinOutOfRange) {
  StreamGraph g("outofrange");
  g.add_source("src", [] { return std::make_unique<BytesSource>(10, 16); }, 1, 0);
  g.add_processor("sink", [] { return std::make_unique<RelayProcessor>(); }, 1, 5);
  g.connect("src", "sink");
  auto findings = lint_slices(g, 2);
  ASSERT_FALSE(findings.empty());
  EXPECT_THROW(plan_slices(g, 2), GraphError);
}

TEST(SliceLint, FlagsOrphanResources) {
  // Deploying a 2-resource graph over 3 processes leaves resource 2 with no
  // operators: that worker would idle forever and stall completion.
  auto findings = lint_slices(pinned_graph(), 3);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("orphan"), std::string::npos);
}

TEST(SliceLint, CleanPlacementHasNoFindings) {
  EXPECT_TRUE(lint_slices(pinned_graph(), 2).empty());
}

// Free loopback port: bind an ephemeral port, read it back, release it.
uint16_t probe_free_port() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  uint16_t port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// The plan for `graph` over two resources, one probed port per cross edge.
SlicePlan plan_with_ports(const StreamGraph& graph) {
  SlicePlan plan = plan_slices(graph, 2);
  for (size_t i = 0; i < plan.cross_edges.size(); ++i) {
    plan.ports.push_back(probe_free_port());
    EXPECT_NE(plan.ports.back(), 0);
  }
  return plan;
}

// Two one-resource Runtimes standing in for two worker processes. The
// jobs are declared last so they are released before their Runtimes.
struct TwoSlices {
  granules::ResourceConfig res{.worker_threads = 1, .io_threads = 1};
  Runtime rt0{1, res};
  Runtime rt1{1, res};
  std::shared_ptr<Job> jobs[2];

  // Deploys graphs[r] as resource r's slice, the receiving slice first so
  // every listener is bound before its sender connects, then runs both
  // jobs to completion.
  void run(const StreamGraph (&graphs)[2], const SlicePlan& plan) {
    jobs[1] = rt1.submit_slice(graphs[1], slice_options_for(plan, 1));
    jobs[0] = rt0.submit_slice(graphs[0], slice_options_for(plan, 0));
    jobs[1]->start();
    jobs[0]->start();
    for (const auto& job : jobs) {
      ASSERT_TRUE(job->wait(120s)) << "a slice did not drain";
      EXPECT_FALSE(job->failed()) << job->failure_reason();
    }
  }

  uint64_t seq_violations() const {
    uint64_t seq = 0;
    for (const auto& job : jobs)
      seq += job->metrics().total(&OperatorMetricsSnapshot::seq_violations);
    return seq;
  }
};

TEST(SliceDeploy, EtlTaxiHalvesMatchGoldenDigest) {
  scenarios::ScenarioSpec spec =
      scenarios::load_scenario(std::string(NEPTUNE_SCENARIO_DIR) + "/etl_taxi.json");
  // One graph and digest context per slice, as each worker process builds.
  scenarios::ScenarioContext ctx[2];
  const StreamGraph graphs[2] = {
      scenarios::build_scenario_graph(spec, spec.trace, ctx[0], /*fastlane=*/false),
      scenarios::build_scenario_graph(spec, spec.trace, ctx[1], /*fastlane=*/false)};
  SlicePlan plan = plan_with_ports(graphs[0]);
  ASSERT_FALSE(plan.cross_edges.empty());

  TwoSlices slices;
  ASSERT_NO_FATAL_FAILURE(slices.run(graphs, plan));

  // Union of the sinks each slice hosts (ctx also holds remote sinks'
  // untouched accumulators).
  std::map<std::string, std::shared_ptr<scenarios::DigestAccumulator>> local_sinks;
  for (size_t r = 0; r < 2; ++r) {
    for (const OperatorDecl& op : graphs[r].operators()) {
      auto it = ctx[r].sinks.find(op.id);
      if (static_cast<size_t>(op.resource) == r && it != ctx[r].sinks.end())
        local_sinks[op.id] = it->second;
    }
  }
  ASSERT_EQ(local_sinks.size(), spec.expect.size());
  for (const auto& [id, want] : spec.expect) {
    ASSERT_TRUE(local_sinks.count(id)) << "sink " << id << " not hosted by either slice";
    EXPECT_EQ(local_sinks[id]->digest(), want.digest) << "sink " << id;
    EXPECT_EQ(local_sinks[id]->count(), want.packets) << "sink " << id;
  }
  EXPECT_EQ(slices.seq_violations(), 0u);
}

TEST(SliceDeploy, ShuffleTwoByTwoDeliversExactlyOnce) {
  // src (2 instances, r0) -shuffle-> sink (2 instances, r1): four cross
  // edges, each a supervised sender on r0 and a supervised receiver on r1.
  static constexpr uint64_t kTotal = 20000;
  // One id bin per sink instance; the factory runs on the submitting thread.
  auto bins = std::make_shared<std::vector<std::shared_ptr<testkit::Collected>>>();
  auto shuffle_graph = [&] {
    StreamGraph g("slice_shuffle");
    g.add_source("src", [] { return std::make_unique<testkit::SeqSource>(kTotal); }, 2, 0);
    g.add_processor("sink", [bins] {
      bins->push_back(std::make_shared<testkit::Collected>());
      return std::make_unique<testkit::CollectorSink>(bins->back());
    }, 2, 1);
    g.connect("src", "sink");
    return g;
  };
  const StreamGraph graphs[2] = {shuffle_graph(), shuffle_graph()};
  SlicePlan plan = plan_with_ports(graphs[0]);
  ASSERT_EQ(plan.cross_edges.size(), 4u);

  TwoSlices slices;
  ASSERT_NO_FATAL_FAILURE(slices.run(graphs, plan));

  // Only resource 1's slice instantiated the sinks; the shuffle spread the
  // stream over both of them.
  ASSERT_EQ(bins->size(), 2u);
  std::vector<int64_t> ids;
  for (const auto& bin : *bins) {
    EXPECT_FALSE(bin->ids.empty());
    ids.insert(ids.end(), bin->ids.begin(), bin->ids.end());
  }
  std::sort(ids.begin(), ids.end());
  std::vector<int64_t> expected(kTotal);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(ids, expected) << "lost or duplicated packets (" << ids.size() << " received)";
  EXPECT_EQ(slices.seq_violations(), 0u);
}

}  // namespace
}  // namespace neptune::proc
