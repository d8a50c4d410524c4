// Operator chaining (docs/INTERNALS.md §16): Runtime::deploy lowers a 1->1
// link between two single instances on the same resource into a direct
// call. These tests hold a chained deployment to the same results as an
// unchained one (golden digests, per-operator counters, exactly-once under
// backpressure, poison quarantine and checkpoint recovery) and check that
// every link outside the rule keeps its buffered edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <thread>

#include "fault/recovery.hpp"
#include "neptune/runtime.hpp"
#include "neptune/window.hpp"
#include "neptune/workload.hpp"
#include "obs/telemetry.hpp"
#include "scenarios/scenario.hpp"
#include "testkit/workloads.hpp"

namespace neptune {
namespace {

using namespace std::chrono_literals;
using testkit::Collected;
using testkit::CollectorSink;
using testkit::SeqSource;

/// Buffered-edge series registered for `job_name`, counted while the job is
/// alive (its handles scope the series).
size_t edge_series(const std::string& job_name) {
  obs::TelemetryRegistry& reg = obs::TelemetryRegistry::global();
  const std::pair<std::string, std::string> job_label{"job", job_name};
  size_t n = 0;
  for (const auto& sample : reg.sample().values) {
    auto desc = reg.descriptor(sample.series);
    if (desc && desc->name == "neptune_edge_inflight_bytes" &&
        std::find(desc->labels.begin(), desc->labels.end(), job_label) != desc->labels.end())
      ++n;
  }
  return n;
}

/// Per-op (packets_in, packets_out), summed over instances.
std::map<std::string, std::pair<uint64_t, uint64_t>> op_packets(const JobMetricsSnapshot& m) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> out;
  for (const auto& op : m.operators) {
    out[op.operator_id].first += op.packets_in;
    out[op.operator_id].second += op.packets_out;
  }
  return out;
}

struct EtlRun {
  std::string digest;
  uint64_t packets = 0;
  size_t edges = 0;
  JobMetricsSnapshot metrics;
};

/// etl_taxi as its scenario file places it, or (`spread`) with every
/// operator on a resource of its own, so no link qualifies for chaining.
EtlRun run_etl_taxi(bool spread) {
  scenarios::ScenarioSpec spec =
      scenarios::load_scenario(std::string(NEPTUNE_SCENARIO_DIR) + "/etl_taxi.json");
  size_t resources = 2;
  if (spread) {
    JsonArray& ops = spec.topology.as_object().at("operators").as_array();
    for (size_t i = 0; i < ops.size(); ++i)
      ops[i].as_object()["resource"] = JsonValue(static_cast<int64_t>(i));
    resources = ops.size();
  }
  scenarios::ScenarioContext ctx;
  StreamGraph graph = scenarios::build_scenario_graph(spec, spec.trace, ctx, false);
  Runtime rt(resources, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(graph);
  job->start();
  EXPECT_TRUE(job->wait(60s));
  EtlRun r;
  r.edges = edge_series(graph.name());
  r.metrics = job->metrics();
  r.digest = ctx.sinks.at("sink")->digest();
  r.packets = ctx.sinks.at("sink")->count();
  EXPECT_EQ(r.metrics.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_TRUE(job->failure_reason().empty()) << job->failure_reason();
  return r;
}

TEST(Chaining, EtlTaxiChainedAndUnchainedMatchGolden) {
  scenarios::ScenarioSpec spec =
      scenarios::load_scenario(std::string(NEPTUNE_SCENARIO_DIR) + "/etl_taxi.json");
  const scenarios::SinkExpect& want = spec.expect.at("sink");

  EtlRun chained = run_etl_taxi(/*spread=*/false);
  EtlRun unchained = run_etl_taxi(/*spread=*/true);
  EXPECT_EQ(chained.digest, want.digest);
  EXPECT_EQ(chained.packets, want.packets);
  EXPECT_EQ(unchained.digest, want.digest);
  EXPECT_EQ(unchained.packets, want.packets);
  // A chained operator keeps its own counters: every operator saw and sent
  // exactly what it does behind buffered edges.
  EXPECT_EQ(op_packets(chained.metrics), op_packets(unchained.metrics));
  // Chained operators never run a task of their own; unchained ones do.
  for (const char* op : {"parse", "filter", "annotate", "sink"}) {
    EXPECT_EQ(chained.metrics.total(op, &OperatorMetricsSnapshot::executions), 0u) << op;
    EXPECT_GT(unchained.metrics.total(op, &OperatorMetricsSnapshot::executions), 0u) << op;
  }
  EXPECT_GT(chained.metrics.total("interp", &OperatorMetricsSnapshot::executions), 0u);
}

TEST(Chaining, EtlTaxiRegistersOneEdgeSeries) {
  // Default placement chains src->parse->filter on resource 0 and
  // interp->annotate->sink on resource 1: filter->interp is the one edge.
  EXPECT_EQ(run_etl_taxi(/*spread=*/false).edges, 1u);
  EXPECT_EQ(run_etl_taxi(/*spread=*/true).edges, 5u);
}

/// Spins `delay` per packet, then records it (ids in arrival order).
class SlowCollector final : public StreamProcessor {
 public:
  SlowCollector(std::shared_ptr<Collected> bin, std::chrono::nanoseconds delay)
      : inner_(std::move(bin)), delay_(delay) {}
  void process(StreamPacket& p, Emitter& out) override {
    auto until = std::chrono::steady_clock::now() + delay_;
    while (std::chrono::steady_clock::now() < until) {
    }
    inner_.process(p, out);
  }

 private:
  CollectorSink inner_;
  std::chrono::nanoseconds delay_;
};

/// Forwards a copy of every packet.
class Pass final : public StreamProcessor {
 public:
  void process(StreamPacket& p, Emitter& out) override {
    StreamPacket copy = p;
    out.emit(std::move(copy));
  }
};

/// Emits ids 0.. with a 64-byte payload and counts the emits that came back
/// kBackpressured (it stops its batch on each, as sources should).
class ThrottledSource final : public StreamSource {
 public:
  ThrottledSource(uint64_t total, std::shared_ptr<std::atomic<uint64_t>> backoffs)
      : total_(total), backoffs_(std::move(backoffs)) {}
  bool next(Emitter& out, size_t budget) override {
    for (size_t i = 0; i < budget && emitted_ < total_; ++i) {
      StreamPacket p;
      p.add_i64(static_cast<int64_t>(emitted_++));
      p.add_bytes(std::vector<uint8_t>(64, 0x5a));
      if (out.emit(std::move(p)) == EmitStatus::kBackpressured) {
        backoffs_->fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
    return emitted_ < total_;
  }

 private:
  const uint64_t total_;
  std::shared_ptr<std::atomic<uint64_t>> backoffs_;
  uint64_t emitted_ = 0;
};

TEST(Chaining, SlowSinkAcrossEdgeThrottlesChainedSource) {
  // src->mid is chained on resource 0; mid->sink crosses to resource 1,
  // whose sink takes 20 us a packet. The edge's flow control must reach the
  // source through the chain: mid's buffer blocks, and the source stops
  // producing instead of piling packets up.
  static constexpr uint64_t kTotal = 3000;
  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 1024;
  cfg.buffer.flush_interval_ns = 1'000'000;
  cfg.channel.capacity_bytes = 4 * 1024;
  cfg.channel.low_watermark_bytes = 1024;
  StreamGraph g("chain-bp", cfg);
  auto bin = std::make_shared<Collected>();
  auto backoffs = std::make_shared<std::atomic<uint64_t>>(0);
  g.add_source("src", [backoffs] { return std::make_unique<ThrottledSource>(kTotal, backoffs); },
               1, 0);
  g.add_processor("mid", [] { return std::make_unique<Pass>(); }, 1, 0);
  g.add_processor("sink", [bin] { return std::make_unique<SlowCollector>(bin, 20us); }, 1, 1);
  g.connect("src", "mid");
  g.connect("mid", "sink");

  Runtime rt(2, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(g);
  EXPECT_EQ(edge_series(g.name()), 1u) << "src->mid chained, mid->sink buffered";
  job->start();
  ASSERT_TRUE(job->wait(120s));
  auto m = job->metrics();
  EXPECT_EQ(m.total("mid", &OperatorMetricsSnapshot::executions), 0u);
  EXPECT_GT(m.total("mid", &OperatorMetricsSnapshot::blocked_ns), 0u);
  EXPECT_GT(m.total("mid", &OperatorMetricsSnapshot::blocked_sends), 0u);
  EXPECT_GT(backoffs->load(), 0u) << "the tail's backpressure never reached the source";
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  // Every packet exactly once, in order.
  ASSERT_EQ(bin->ids.size(), kTotal);
  for (uint64_t i = 0; i < kTotal; ++i) ASSERT_EQ(bin->ids[i], static_cast<int64_t>(i));
}

/// Throws on one id, forwards everything else.
class PoisonOnId final : public StreamProcessor {
 public:
  explicit PoisonOnId(int64_t id) : id_(id) {}
  void process(StreamPacket& p, Emitter& out) override {
    if (p.i64(0) == id_) throw std::runtime_error("poison pill " + std::to_string(id_));
    StreamPacket copy = p;
    out.emit(std::move(copy));
  }

 private:
  const int64_t id_;
};

TEST(Chaining, ChainedOperatorThrowQuarantinesUnderItsOwnId) {
  static constexpr uint64_t kTotal = 1000;
  static constexpr int64_t kPoison = 400;
  RuntimeOptions opt;
  opt.quarantine.enabled = true;
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1}, opt);
  auto bin = std::make_shared<Collected>();
  StreamGraph g("chain-poison");
  g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal); });
  g.add_processor("proc", [] { return std::make_unique<PoisonOnId>(kPoison); });
  g.add_processor("sink", [bin] { return std::make_unique<CollectorSink>(bin); });
  g.connect("src", "proc");
  g.connect("proc", "sink");

  auto job = rt.submit(g);
  EXPECT_EQ(edge_series(g.name()), 0u) << "both links chained";
  job->start();
  ASSERT_TRUE(job->wait(60s));

  EXPECT_EQ(bin->count, kTotal - 1);
  EXPECT_EQ(std::count(bin->ids.begin(), bin->ids.end(), kPoison), 0);
  auto m = job->metrics();
  EXPECT_EQ(m.total("proc", &OperatorMetricsSnapshot::packets_quarantined), 1u);
  EXPECT_EQ(m.total("src", &OperatorMetricsSnapshot::packets_quarantined), 0u);
  auto entries = job->dead_letters()->drain();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].op_id, "proc");
  EXPECT_EQ(entries[0].link_id, 0u) << "the src->proc link";
  EXPECT_EQ(entries[0].packet_count, 1u);
  EXPECT_NE(entries[0].reason.find("poison pill"), std::string::npos);
  ByteReader r(entries[0].packet_bytes);
  StreamPacket p;
  p.deserialize(r);
  EXPECT_EQ(p.i64(0), kPoison);
  EXPECT_EQ(r.remaining(), 0u);
}

/// Runs `g` to completion on one resource and returns its metrics.
JobMetricsSnapshot run_one_resource(const StreamGraph& g) {
  Runtime rt(1, {.worker_threads = 1, .io_threads = 1});
  auto job = rt.submit(g);
  job->start();
  EXPECT_TRUE(job->wait(60s));
  return job->metrics();
}

TEST(Chaining, LinksOutsideTheRuleKeepBufferedEdges) {
  // Each graph has one same-resource link that breaks exactly one clause
  // of the rule; its downstream must keep a task (and an edge) of its own.
  static constexpr uint64_t kTotal = 2000;
  auto sink_into = [](std::shared_ptr<Collected> bin) {
    return [bin] { return std::make_unique<CollectorSink>(bin); };
  };
  {  // parallelism 2 downstream
    auto bin = std::make_shared<Collected>();
    StreamGraph g("unchained-par2");
    g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal); });
    g.add_processor("sink", sink_into(bin), 2);
    g.connect("src", "sink");
    auto m = run_one_resource(g);
    EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::executions), 0u);
    EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::flushes), 0u);
    EXPECT_EQ(bin->count, kTotal);
  }
  {  // on_batch downstream
    auto sink = std::make_shared<workload::CountingSink>();
    StreamGraph g("unchained-batch");
    g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal); });
    g.add_processor("sink", [sink]() -> std::unique_ptr<StreamProcessor> {
      struct Fwd : StreamProcessor {
        std::shared_ptr<workload::CountingSink> inner;
        explicit Fwd(std::shared_ptr<workload::CountingSink> s) : inner(std::move(s)) {}
        void process(StreamPacket& p, Emitter& out) override { inner->process(p, out); }
        bool prefers_batches() const override { return true; }
        void on_batch(BatchView& b, Emitter& out) override { inner->on_batch(b, out); }
      };
      return std::make_unique<Fwd>(sink);
    });
    g.connect("src", "sink");
    auto m = run_one_resource(g);
    EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::executions), 0u);
    EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::batch_dispatches), 0u);
    EXPECT_EQ(sink->count(), kTotal);
  }
  {  // best-effort link with a shed policy
    auto bin = std::make_shared<Collected>();
    StreamGraph g("unchained-shed");
    g.add_source("src", [] { return std::make_unique<SeqSource>(kTotal); });
    g.add_processor("sink", sink_into(bin));
    ShedConfig shed;
    shed.policy = ShedPolicy::kDropNewest;
    g.connect("src", "sink", nullptr, {}, std::nullopt, QosClass::kBestEffort, shed);
    auto m = run_one_resource(g);
    EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::executions), 0u);
    EXPECT_GT(m.total("src", &OperatorMetricsSnapshot::flushes), 0u);
    EXPECT_EQ(bin->count + m.total("src", &OperatorMetricsSnapshot::packets_shed), kTotal);
  }
  {  // downstream with a second inbound link
    auto bin = std::make_shared<Collected>();
    StreamGraph g("unchained-fan-in");
    g.add_source("a", [] { return std::make_unique<SeqSource>(kTotal); });
    g.add_source("b", [] { return std::make_unique<SeqSource>(kTotal); });
    g.add_processor("sink", sink_into(bin));
    g.connect("a", "sink");
    g.connect("b", "sink");
    auto m = run_one_resource(g);
    EXPECT_GT(m.total("sink", &OperatorMetricsSnapshot::executions), 0u);
    EXPECT_GT(m.total("a", &OperatorMetricsSnapshot::flushes), 0u);
    EXPECT_GT(m.total("b", &OperatorMetricsSnapshot::flushes), 0u);
    EXPECT_EQ(bin->count, 2 * kTotal);
  }
}

/// Deterministic paced source: id i carries event time i/8 ms and value
/// i % 101, so a restored run replays the same stream. ~80 us a packet.
class PacedSource final : public StreamSource, public Checkpointable {
 public:
  explicit PacedSource(uint64_t total) : total_(total) {}
  bool next(Emitter& out, size_t budget) override {
    for (size_t i = 0; i < budget && emitted_ < total_; ++i) {
      std::this_thread::sleep_for(80us);
      StreamPacket p;
      p.add_i64(static_cast<int64_t>(emitted_ / 8));
      p.add_i64(static_cast<int64_t>(emitted_ % 101));
      ++emitted_;
      if (out.emit(std::move(p)) == EmitStatus::kBackpressured) break;
    }
    return emitted_ < total_;
  }
  void snapshot_state(ByteBuffer& out) const override { out.write_u64(emitted_); }
  void restore_state(ByteReader& in) override { emitted_ = in.read_u64(); }

 private:
  const uint64_t total_;
  uint64_t emitted_ = 0;
};

/// Checkpointable pass-through that counts what it forwarded.
class CountingPass final : public StreamProcessor, public Checkpointable {
 public:
  void process(StreamPacket& p, Emitter& out) override {
    ++count_;
    StreamPacket copy = p;
    out.emit(std::move(copy));
  }
  void snapshot_state(ByteBuffer& out) const override { out.write_u64(count_); }
  void restore_state(ByteReader& in) override { count_ = in.read_u64(); }

 private:
  uint64_t count_ = 0;
};

/// Window rows as the sink saw them; the log rewinds on restore, so rows
/// lost with a crash are replaced, not duplicated.
class RowLog final : public StreamProcessor, public Checkpointable {
 public:
  explicit RowLog(std::shared_ptr<std::vector<std::vector<uint64_t>>> rows)
      : rows_(std::move(rows)) {}
  void process(StreamPacket& p, Emitter&) override {
    // [window_start_ms, key, count, sum, mean, min, max]
    rows_->push_back({static_cast<uint64_t>(p.i64(0)), static_cast<uint64_t>(p.i64(2)),
                      std::bit_cast<uint64_t>(p.f64(3))});
  }
  void snapshot_state(ByteBuffer& out) const override {
    out.write_varint(rows_->size());
    for (const auto& row : *rows_)
      for (uint64_t v : row) out.write_u64(v);
  }
  void restore_state(ByteReader& in) override {
    rows_->resize(in.read_varint());
    for (auto& row : *rows_) {
      row.resize(3);
      for (uint64_t& v : row) v = in.read_u64();
    }
  }

 private:
  std::shared_ptr<std::vector<std::vector<uint64_t>>> rows_;
};

/// src@0 --tcp--> pass@1 -> agg@1 -> sink@1, the last two links chained;
/// optionally kill resource 1 at `kill_at_ns` and let the coordinator
/// restore the chain from its last checkpoint.
std::vector<std::vector<uint64_t>> run_recovering_chain(int64_t kill_at_ns,
                                                        uint64_t* recoveries) {
  auto injector = std::make_shared<fault::FaultInjector>();
  if (kill_at_ns >= 0) injector->schedule_resource_kill(1, kill_at_ns);
  RuntimeOptions ro;
  ro.cross_resource_transport = EdgeTransport::kTcp;
  ro.fault_injector = injector;
  ro.supervisor.heartbeat_interval_ns = 10'000'000;
  ro.supervisor.peer_timeout_ns = 200'000'000;
  ro.supervisor.reconnect_backoff_ns = 2'000'000;
  ro.supervisor.reconnect_backoff_max_ns = 50'000'000;
  Runtime rt(2, {.worker_threads = 1, .io_threads = 1}, ro);

  GraphConfig cfg;
  cfg.buffer.capacity_bytes = 2048;
  cfg.buffer.flush_interval_ns = 1'000'000;
  StreamGraph g("chain-recovery", cfg);
  auto rows = std::make_shared<std::vector<std::vector<uint64_t>>>();
  g.add_source("src", [] { return std::make_unique<PacedSource>(3000); }, 1, 0);
  g.add_processor("pass", [] { return std::make_unique<CountingPass>(); }, 1, 1);
  g.add_processor("agg", [] {
    window::WindowConfig wc;
    wc.window_ms = 50;
    wc.time_field = 0;
    wc.value_field = 1;
    return std::make_unique<window::TumblingAggregator>(wc);
  }, 1, 1);
  g.add_processor("sink", [rows] { return std::make_unique<RowLog>(rows); }, 1, 1);
  g.connect("src", "pass");
  g.connect("pass", "agg");
  g.connect("agg", "sink");

  fault::RecoveryOptions opt;
  opt.checkpoint_interval_ns = 40'000'000;
  opt.poll_interval_ns = 10'000'000;
  fault::RecoveryCoordinator coord(rt, std::move(g), opt);
  coord.start();
  EXPECT_TRUE(coord.wait(120s));
  EXPECT_FALSE(coord.permanently_failed());
  auto m = coord.metrics();
  EXPECT_EQ(m.total(&OperatorMetricsSnapshot::seq_violations), 0u);
  EXPECT_EQ(m.total("agg", &OperatorMetricsSnapshot::executions), 0u) << "agg is chained";
  *recoveries = coord.recoveries();
  return *rows;
}

TEST(Chaining, RecoveryThroughChainIsExactlyOnce) {
  uint64_t recoveries = 0;
  const auto expected = run_recovering_chain(-1, &recoveries);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(recoveries, 0u);
  const auto got = run_recovering_chain(/*kill_at_ns=*/120'000'000, &recoveries);
  EXPECT_GE(recoveries, 1u);
  EXPECT_EQ(got, expected) << "window rows diverged after restoring the chain";
}

}  // namespace
}  // namespace neptune
