#include "workloads.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dump.hpp"
#include "measure.hpp"
#include "neptune/runtime.hpp"
#include "neptune/workload.hpp"
#include "obs/trace.hpp"
#include "proc/supervisor.hpp"
#include "scenarios/scenario.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using neptune::EdgeTransport;
using neptune::Emitter;
using neptune::EmitStatus;
using neptune::now_ns;
using neptune::StreamGraph;
using neptune::StreamPacket;
using neptune::StreamSource;
namespace scen = neptune::scenarios;

namespace {

// --- workload constants (README.md explains each choice) -------------------
constexpr uint64_t kEtlEvents = 1'000'000;
/// Sink digest of etl_taxi at kEtlEvents events and the scenario file's own
/// trace seed (42); other seeds are checked against a single-resource run.
constexpr const char* kEtlGoldenDigest = "n989992-s697f513dd03c7aa1-x2c8b773486f51483";
constexpr uint64_t kRelayTcpPackets = 2'000'000;
constexpr size_t kRelayPayloadBytes = 100;
constexpr double kPacedRate = 100'000;  // events/s, open loop
constexpr uint64_t kPacedPackets = 200'000;  // 2 s per repetition
/// relay_paced events later than this count as failed.
constexpr int64_t kPacedLatencyLimitNs = 100'000'000;
/// Set-up is timed on deployments of this trivially short a trace,
/// kSetupsPerRep of them before each measured repetition, so the set-up
/// samples span the same stretch of the run as the measured ones.
constexpr uint64_t kSetupEvents = 2'000;
constexpr int kSetupsPerRep = 8;
/// Batch-span sampler period in traced repetitions (runtime default 128).
constexpr uint32_t kTracedSamplePeriod = 2;
/// A deployment still running after this long has hung (the slowest takes
/// about 10 s). It is reported as failed, and the run still ends well within
/// three minutes.
constexpr auto kRepTimeout = std::chrono::seconds(60);

/// The sink tap's sample count and percentiles. A Rep keeps these, not the
/// histogram (~117 KB), so the Reps a run holds do not add to the peak RSS
/// of its later repetitions.
struct LatencySummary {
  uint64_t count = 0;
  double p50_ms = 0, p90_ms = 0, p99_ms = 0;
};

LatencySummary summarize(const Histogram& h) {
  return {h.count(), h.percentile(50) / 1e6, h.percentile(90) / 1e6, h.percentile(99) / 1e6};
}

/// One repetition's outcome.
struct Rep {
  uint64_t events = 0;
  uint64_t failed = 0;
  std::string error;  ///< empty: every check passed
  double setup_s = 0;
  double wall_s = 0;  ///< first source call to last sink arrival
  double eps = 0;
  double cpu_ns_per_event = 0;
  LatencySummary latency;
  double checkpoints_per_s = 0;
  double worker_cpu_ns_per_event = 0;
  double supervisor_cpu_ns_per_event = 0;
  /// Peak RSS of this process so far (it only grows over a run's
  /// repetitions), or of this deployment's largest worker.
  double peak_rss_mb = 0;
  std::vector<LayerRow> layers;  ///< traced repetitions only
};

void fail(Rep& rep, const std::string& why) {
  if (rep.error.empty()) rep.error = why;
  rep.failed = rep.events;
}

// --- benchmark-owned relay sources -----------------------------------------

/// Payload bytes for relay packet `seq`: 64 seeded buffers in rotation.
std::vector<std::vector<uint8_t>> relay_payloads(uint64_t seed) {
  neptune::Xoshiro256 rng(seed);
  std::vector<std::vector<uint8_t>> pool(64, std::vector<uint8_t>(kRelayPayloadBytes));
  for (auto& p : pool) {
    for (auto& b : p) b = static_cast<uint8_t>(rng.next_u64());
  }
  return pool;
}

/// Saturating source: `total` packets {i64 seq, bytes payload}, as fast as
/// backpressure allows. The runtime stamps event time at emit.
class SeqSource final : public StreamSource {
 public:
  SeqSource(uint64_t total, uint64_t seed) : total_(total), pool_(relay_payloads(seed)) {}
  bool next(Emitter& out, size_t budget) override {
    for (size_t i = 0; i < budget && emitted_ < total_; ++i) {
      StreamPacket p;
      p.add_i64(static_cast<int64_t>(emitted_));
      p.add_bytes(pool_[emitted_ % pool_.size()]);
      ++emitted_;
      if (out.emit(std::move(p)) == EmitStatus::kBackpressured) break;
    }
    return emitted_ < total_;
  }

 private:
  const uint64_t total_;
  const std::vector<std::vector<uint8_t>> pool_;
  uint64_t emitted_ = 0;
};

/// Open-loop source: packet i is due at start + i / rate and carries its due
/// time as event time, so latency counts any wait a stall imposes on later
/// packets. Lateness of the generator itself (emit time - due time) goes to
/// `lag`.
class PacedDueSource final : public StreamSource {
 public:
  PacedDueSource(uint64_t total, double rate, uint64_t seed,
                 std::shared_ptr<Histogram> lag)
      : total_(total), period_ns_(1e9 / rate), pool_(relay_payloads(seed)), lag_(std::move(lag)) {}
  bool next(Emitter& out, size_t budget) override {
    int64_t now = now_ns();
    if (start_ns_ == 0) start_ns_ = now;
    for (size_t i = 0; i < budget && emitted_ < total_; ++i) {
      const int64_t due =
          start_ns_ + static_cast<int64_t>(static_cast<double>(emitted_) * period_ns_);
      if (due > now) break;
      StreamPacket p;
      p.set_event_time_ns(due);
      p.add_i64(static_cast<int64_t>(emitted_));
      p.add_bytes(pool_[emitted_ % pool_.size()]);
      ++emitted_;
      lag_->record(static_cast<uint64_t>(now - due));
      out.emit(std::move(p));
      now = now_ns();
    }
    return emitted_ < total_;
  }

 private:
  const uint64_t total_;
  const double period_ns_;
  const std::vector<std::vector<uint8_t>> pool_;
  std::shared_ptr<Histogram> lag_;  // written by this source only
  int64_t start_ns_ = 0;
  uint64_t emitted_ = 0;
};

/// The paper's Fig-1 relay: sender (res0) -> relay (res1) -> receiver (res0),
/// 1 MB buffers, the relay and sink on the zero-copy on_batch path.
StreamGraph relay_graph(bool paced, uint64_t seed, uint64_t packets,
                        const std::shared_ptr<Histogram>& lag) {
  neptune::GraphConfig cfg;
  cfg.buffer.capacity_bytes = 1 << 20;
  StreamGraph g(paced ? "relay_paced" : "relay_tcp", cfg);
  if (paced) {
    g.add_source("sender",
                 [seed, packets, lag] {
                   return std::make_unique<PacedDueSource>(packets, kPacedRate, seed, lag);
                 },
                 1, 0);
  } else {
    g.add_source("sender",
                 [seed, packets] { return std::make_unique<SeqSource>(packets, seed); }, 1, 0);
  }
  g.add_processor("relay", [] { return std::make_unique<neptune::workload::RelayProcessor>(); },
                  1, 1);
  g.add_processor("receiver", [] { return std::make_unique<neptune::workload::CountingSink>(); },
                  1, 0);
  g.connect("sender", "relay");
  g.connect("relay", "receiver");
  return g;
}

std::map<uint32_t, std::string> link_names(const StreamGraph& g) {
  std::map<uint32_t, std::string> out;
  for (const auto& l : g.links())
    out[l.link_id] = g.operators()[l.from_op].id + "->" + g.operators()[l.to_op].id;
  return out;
}

std::map<std::string, double> tcp_series(const std::vector<Series>& all) {
  std::map<std::string, double> out;
  for (const Series& s : all) {
    if (s.name.rfind("neptune_tcp_", 0) == 0 && s.name.find("_total") != std::string::npos)
      out[s.name] += s.value;
  }
  return out;
}

std::map<std::string, double> minus(std::map<std::string, double> a,
                                    const std::map<std::string, double>& b) {
  for (auto& [k, v] : a) {
    auto it = b.find(k);
    if (it != b.end()) v -= it->second;
  }
  return a;
}

// --- in-process repetitions --------------------------------------------------

/// Where a job that did not finish stands: per operator instance the packets
/// in and out, blocked sends, bytes waiting in its outbound buffers, batches
/// ready for it and how long its current execution has run; then each
/// thread's CPU time and context switches.
std::string stall_report(const neptune::JobMetricsSnapshot& snap,
                         const std::vector<ThreadStat>& threads) {
  std::ostringstream s;
  const int64_t now = now_ns();
  for (const neptune::OperatorMetricsSnapshot& m : snap.operators) {
    s << m.operator_id << '/' << m.instance << " in " << m.packets_in << " out "
      << m.packets_out << " blocked " << m.blocked_sends << " buffered "
      << m.outbound_buffered_bytes << " B ready " << m.inbound_ready_batches << " executing "
      << (m.exec_begin_ns > 0 ? (now - m.exec_begin_ns) / 1'000'000 : 0) << " ms; ";
  }
  for (const ThreadStat& t : threads)
    s << t.comm << " cpu " << t.cpu_ns / 1'000'000 << " ms, " << t.ctx_switches << " switches; ";
  return s.str();
}

struct InprocSpec {
  size_t resources = 2;
  EdgeTransport transport = EdgeTransport::kInproc;
  uint64_t events = 0;
  int64_t latency_limit_ns = 0;
  bool check_seq = false;
  bool traced = false;
};

/// Deploy `graph` on a fresh Runtime (1 worker + 1 IO thread per resource),
/// run it to completion and measure it. `check` inspects the job's output
/// afterwards and returns what is wrong, or "".
Rep inproc_rep(const StreamGraph& graph, const InprocSpec& spec,
               const std::function<std::string()>& check) {
  static const uint32_t default_period = neptune::obs::TraceSampler::global().period();
  Rep rep;
  rep.events = spec.events;
  TapStats tap(spec.latency_limit_ns, spec.check_seq);
  ProbeRegistry probes;
  WrapOptions w;
  w.tap = &tap;
  w.probes = spec.traced ? &probes : nullptr;
  StreamGraph wrapped = wrap_graph(graph, w);
  neptune::obs::TraceSampler::global().set_period(spec.traced ? kTracedSamplePeriod
                                                               : default_period);
  neptune::obs::TraceCollector::global().clear();
  const auto tcp0 = tcp_series(sample_telemetry());

  // Hand back to the kernel what earlier deployments left free in the
  // allocator's arenas, so this repetition's peak does not depend on how
  // many ran before it in this process.
  ::malloc_trim(0);
  reset_peak_rss();
  const int64_t t0 = now_ns();
  neptune::granules::ResourceConfig rc;
  rc.worker_threads = 1;
  rc.io_threads = 1;
  neptune::RuntimeOptions ro;
  ro.cross_resource_transport = spec.transport;
  neptune::Runtime rt(spec.resources, rc, ro);
  auto job = rt.submit(wrapped);
  const auto threads0 = read_threads();
  const int64_t cpu0 = process_cpu_ns();
  job->start();
  rep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  if (!job->wait(kRepTimeout)) {
    fail(rep, "timed out; " + stall_report(job->metrics(), read_threads()));
    job->stop();
  }
  const int64_t cpu1 = process_cpu_ns();
  const auto threads1 = read_threads();
  const neptune::JobMetricsSnapshot snap = job->metrics();
  const std::vector<Series> series = sample_telemetry();
  rep.peak_rss_mb = peak_rss_mb();
  if (!job->failure_reason().empty()) fail(rep, "job failed: " + job->failure_reason());
  const uint64_t violations = snap.total(&neptune::OperatorMetricsSnapshot::seq_violations);
  if (violations != 0) fail(rep, std::to_string(violations) + " seq violations");
  rt.shutdown();
  neptune::obs::TraceSampler::global().set_period(default_period);

  rep.wall_s = static_cast<double>(tap.last_arrival_ns() - tap.first_emit_ns()) / 1e9;
  rep.eps = rep.wall_s > 0 ? static_cast<double>(spec.events) / rep.wall_s : 0;
  rep.cpu_ns_per_event =
      static_cast<double>(cpu1 - cpu0) / static_cast<double>(std::max<uint64_t>(spec.events, 1));
  rep.latency = summarize(tap.latency());
  if (rep.error.empty()) {
    const std::string why = check();
    if (!why.empty()) fail(rep, why);
  }
  if (rep.error.empty() && spec.check_seq) {
    // Lost, duplicated or reordered packets are failed; so are late ones.
    rep.failed = tap.failed(spec.events);
    if (!tap.delivered_exactly(spec.events))
      rep.error = "relay delivered " + std::to_string(tap.in_order()) + " of " +
                  std::to_string(spec.events) + " packets in order in " +
                  std::to_string(tap.arrivals()) + " arrivals";
  }

  if (spec.traced) {
    TraceInputs in;
    in.events = spec.events;
    in.wall_s = rep.wall_s;
    in.ops = probes.by_operator();
    in.counters = counters_of(snap);
    in.threads = thread_delta(threads0, threads1);
    in.process_cpu_ns = cpu1 - cpu0;
    in.spans = neptune::obs::TraceCollector::global().spans();
    in.link_names = link_names(graph);
    in.tcp = minus(tcp_series(series), tcp0);
    in.wakeups = series_sum(series, "granules_scheduler_wakeups_total");
    double bytes = 0, flushes = 0;
    for (const OpCounters& c : in.counters) {
      bytes += c.bytes_out;
      flushes += c.flushes;
    }
    in.unit = time_unit_costs(graph, flushes > 0 ? bytes / flushes : 0);
    rep.layers = compute_layers(in);
  }
  return rep;
}

// --- etl_taxi ----------------------------------------------------------------

struct EtlSetup {
  scen::ScenarioSpec spec;  ///< trace seed and event count already applied
  std::string reference;    ///< expected sink digest
  double single_thread_eps = 0;
};

EtlSetup etl_setup(const RunConfig& cfg, bool measure_single_thread) {
  EtlSetup s;
  s.spec = scen::load_scenario(cfg.root + "/tests/scenarios/data/etl_taxi.json");
  const bool golden = cfg.seed == s.spec.trace.seed;
  s.spec.trace.seed = cfg.seed;
  s.spec.trace.events = kEtlEvents;
  s.spec.expect.clear();
  if (golden) s.reference = kEtlGoldenDigest;
  if (!golden || measure_single_thread) {
    // The reference for any seed: one resource, one worker, fast-lane edges.
    scen::RunOptions ro;
    ro.transport = scen::Transport::kFastlane;
    ro.worker_threads = 1;
    ro.timeout = kRepTimeout;
    scen::ScenarioResult r = scen::run_scenario(s.spec, ro);
    std::string why = r.check(s.spec);
    if (!why.empty()) throw std::runtime_error("etl_taxi reference run: " + why);
    const std::string digest = r.sinks.at("sink").digest;
    if (golden && digest != s.reference)
      throw std::runtime_error("etl_taxi reference run: digest " + digest +
                               " != committed " + s.reference);
    s.reference = digest;
    s.single_thread_eps = static_cast<double>(r.events) / r.seconds;
  }
  return s;
}

/// `events_override` > 0 runs that short a trace (set-up timing; no digest
/// reference exists for it).
Rep etl_rep(const EtlSetup& s, bool traced, uint64_t events_override = 0) {
  scen::TraceSpec trace = s.spec.trace;
  if (events_override > 0) trace.events = events_override;
  scen::ScenarioContext ctx;
  StreamGraph g = scen::build_scenario_graph(s.spec, trace, ctx, /*fastlane=*/false);
  InprocSpec spec;
  spec.events = trace.events;
  spec.traced = traced;
  return inproc_rep(g, spec, [&]() -> std::string {
    if (events_override > 0) return "";
    auto it = ctx.sinks.find("sink");
    if (it == ctx.sinks.end()) return "no sink";
    if (it->second->digest() != s.reference)
      return "sink digest " + it->second->digest() + " != reference " + s.reference;
    return "";
  });
}

// --- relays -------------------------------------------------------------------

Rep relay_rep(bool paced, uint64_t seed, bool traced, uint64_t packets) {
  auto lag = std::make_shared<Histogram>();
  StreamGraph g = relay_graph(paced, seed, packets, lag);
  InprocSpec spec;
  spec.events = packets;
  spec.transport = paced ? EdgeTransport::kInproc : EdgeTransport::kTcp;
  spec.check_seq = true;
  spec.latency_limit_ns = paced ? kPacedLatencyLimitNs : 0;
  spec.traced = traced;
  // Read the generator's lateness when the job ends, before the unit-cost
  // timings instantiate the source again.
  double lag_p99_ms = 0;
  Rep rep = inproc_rep(g, spec, [&] {
    lag_p99_ms = lag->percentile(99) / 1e6;
    return std::string();
  });
  if (paced && traced) rep.layers.push_back({"scenarios.src_gen_lag_p99_ms", lag_p99_ms, "ms"});
  return rep;
}

// --- etl_taxi_proc -----------------------------------------------------------

struct ProcEnv {
  std::string scenario_file;  ///< etl_taxi with the run's seed and event count
  std::string bin;            ///< neptuned_probed
  std::string work_root;
  std::string reference;
  scen::ScenarioSpec spec;
  int serial = 0;
};

ProcEnv proc_env(const RunConfig& cfg, const EtlSetup& etl) {
  ProcEnv env;
  env.bin = cfg.bin_dir + "/neptuned_probed";
  if (::access(env.bin.c_str(), X_OK) != 0)
    throw std::runtime_error("worker binary not found: " + env.bin);
  env.work_root = cfg.work_dir + "/proc-" + std::to_string(::getpid());
  fs::create_directories(env.work_root);
  std::ifstream in(cfg.root + "/tests/scenarios/data/etl_taxi.json");
  std::stringstream text;
  text << in.rdbuf();
  neptune::JsonValue doc = neptune::JsonValue::parse(text.str());
  auto& trace = doc.as_object().at("trace").as_object();
  trace["seed"] = neptune::JsonValue(static_cast<int64_t>(cfg.seed));
  trace["events"] = neptune::JsonValue(static_cast<int64_t>(kEtlEvents));
  doc.as_object().erase("expect");
  env.scenario_file = env.work_root + "/etl_taxi.json";
  std::ofstream(env.scenario_file) << doc.dump(2);
  env.reference = etl.reference;
  env.spec = etl.spec;
  return env;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

/// One supervised deployment of etl_taxi as 2 neptuned workers.
/// `events_override` > 0 runs that short a trace (set-up timing; no digest
/// reference exists for it).
Rep proc_rep(ProcEnv& env, bool traced, int64_t checkpoint_ms, uint64_t events_override = 0) {
  Rep rep;
  rep.events = events_override > 0 ? events_override : kEtlEvents;
  const std::string tag = std::to_string(env.serial++);
  const std::string dump_dir = env.work_root + "/dump-" + tag;
  fs::create_directories(dump_dir);
  ::setenv(kDumpDirEnv, dump_dir.c_str(), 1);
  ::setenv(kTraceEnv, traced ? "1" : "0", 1);
  if (traced)
    ::setenv("NEPTUNE_TRACE_SAMPLE", std::to_string(kTracedSamplePeriod).c_str(), 1);
  else
    ::unsetenv("NEPTUNE_TRACE_SAMPLE");

  neptune::proc::SupervisorOptions so;
  so.neptuned_path = env.bin;
  so.scenario_path = env.scenario_file;
  so.events_override = events_override;
  so.work_dir = env.work_root + "/deploy-" + tag;
  so.checkpoint_interval_ms = checkpoint_ms;
  so.worker_threads = 1;
  so.timeout_ms = std::chrono::milliseconds(kRepTimeout).count();
  const int64_t self0 = process_cpu_ns();
  const int64_t child0 = children_cpu_ns();
  const int64_t t0 = now_ns();
  neptune::proc::SupervisorReport report = neptune::proc::ResourceSupervisor(so).run();
  // The whole deployment, timed from outside (report.seconds has ms steps).
  rep.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  const int64_t self_cpu = process_cpu_ns() - self0;
  const int64_t child_cpu = children_cpu_ns() - child0;
  ::unsetenv(kDumpDirEnv);
  ::unsetenv(kTraceEnv);
  ::unsetenv("NEPTUNE_TRACE_SAMPLE");

  if (!report.completed) fail(rep, "deployment failed: " + report.failure);
  if (report.seq_violations != 0)
    fail(rep, std::to_string(report.seq_violations) + " seq violations");
  if (events_override == 0) {
    auto it = report.sinks.find("sink");
    if (it == report.sinks.end())
      fail(rep, "no sink report");
    else if (it->second.digest != env.reference)
      fail(rep, "sink digest " + it->second.digest + " != reference " + env.reference);
  }

  std::vector<WorkerDump> dumps;
  for (const auto& f : fs::directory_iterator(dump_dir)) {
    try {
      dumps.push_back(decode_dump(read_file(f.path())));
    } catch (const std::exception& e) {
      fail(rep, "unreadable worker report " + f.path().string() + ": " + e.what());
    }
  }
  int64_t first = 0, last = 0;
  Histogram latency;
  for (const WorkerDump& d : dumps) {
    if (d.first_emit_ns > 0 && (first == 0 || d.first_emit_ns < first)) first = d.first_emit_ns;
    last = std::max(last, d.last_arrival_ns);
    latency.merge(d.latency);
    rep.peak_rss_mb = std::max(rep.peak_rss_mb, d.peak_rss_mb);
  }
  rep.latency = summarize(latency);
  if (events_override == 0 && (first == 0 || last <= first))
    fail(rep, "workers reported no emit/arrival times");
  const double E = static_cast<double>(rep.events);
  rep.wall_s = last > first ? static_cast<double>(last - first) / 1e9 : 0;
  rep.eps = rep.wall_s > 0 ? E / rep.wall_s : 0;
  rep.cpu_ns_per_event = static_cast<double>(self_cpu + child_cpu) / E;
  rep.worker_cpu_ns_per_event = static_cast<double>(child_cpu) / E;
  rep.supervisor_cpu_ns_per_event = static_cast<double>(self_cpu) / E;
  rep.checkpoints_per_s =
      report.seconds > 0 ? static_cast<double>(report.checkpoints) / report.seconds : 0;

  if (traced && rep.error.empty()) {
    TraceInputs in;
    in.events = rep.events;
    in.wall_s = rep.wall_s;
    in.process_cpu_ns = self_cpu + child_cpu;
    in.supervisor_cpu_ns = self_cpu;
    for (const WorkerDump& d : dumps) {
      // Each worker names its one resource "res0"; rename by the pin of the
      // operators it hosts so the two processes' threads stay apart.
      const int res = d.ops.empty() ? -1 : d.ops.front()->resource;
      for (ThreadStat t : d.threads) {
        std::string r;
        if (!thread_role(t.comm, &r).empty() && res >= 0)
          t.comm = "res" + std::to_string(res) + t.comm.substr(r.size());
        in.threads.push_back(std::move(t));
      }
      in.ops.insert(in.ops.end(), d.ops.begin(), d.ops.end());
      auto c = counters_from_telemetry(d.series);
      in.counters.insert(in.counters.end(), c.begin(), c.end());
      in.spans.insert(in.spans.end(), d.spans.begin(), d.spans.end());
      for (const auto& [k, v] : tcp_series(d.series)) in.tcp[k] += v;
      in.wakeups += series_sum(d.series, "granules_scheduler_wakeups_total");
    }
    scen::ScenarioContext ctx;
    StreamGraph g = scen::build_scenario_graph(env.spec, env.spec.trace, ctx, false);
    in.link_names = link_names(g);
    double bytes = 0, flushes = 0;
    for (const OpCounters& c : in.counters) {
      bytes += c.bytes_out;
      flushes += c.flushes;
    }
    in.unit = time_unit_costs(g, flushes > 0 ? bytes / flushes : 0);
    rep.layers = compute_layers(in);
  }
  std::error_code ec;
  fs::remove_all(dump_dir, ec);
  fs::remove_all(so.work_dir, ec);
  return rep;
}

// --- reduction -----------------------------------------------------------------

template <typename F>
double median_of(const std::vector<Rep>& reps, F field) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    const double x = field(r);
    if (x >= 0) v.push_back(x);
  }
  return median(std::move(v));
}

/// Repeat `body` until `seconds` have passed: a repetition starts only if
/// at least half of the last one's duration is left; at least `min_reps`.
std::vector<Rep> repeat(double seconds, size_t min_reps, const std::function<Rep()>& body) {
  std::vector<Rep> reps;
  const int64_t start = now_ns();
  double last = 0;
  for (;;) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (reps.size() >= min_reps && elapsed + last / 2 >= seconds) break;
    if (elapsed > 150) break;  // a run must end within three minutes
    const int64_t t0 = now_ns();
    reps.push_back(body());
    last = static_cast<double>(now_ns() - t0) / 1e9;
  }
  return reps;
}

void account(RunResult& out, const std::vector<Rep>& reps, const std::string& what) {
  for (const Rep& r : reps) {
    out.attempted += r.events;
    out.failed += r.failed;
    if (!r.error.empty()) {
      out.correct = false;
      out.errors.push_back(what + ": " + r.error);
    }
  }
}

void add(RunResult& out, const std::string& name, double v, const std::string& unit) {
  out.metrics[name] = {v, unit};
}

void end_to_end(RunResult& out, const std::vector<Rep>& reps, double setup_s) {
  add(out, "throughput_eps", median_of(reps, [](const Rep& r) { return r.eps; }), "1/s");
  // Each repetition's percentiles, then their median: a saturated
  // pipeline's p99 is set by its few slowest batches, and the median keeps
  // one repetition with a stall from moving the run's figure.
  for (const Rep& r : reps) {
    if (!percentile_supported(r.latency.count, 99)) {
      out.correct = false;
      out.errors.push_back("too few latency samples for p99");
      break;
    }
  }
  add(out, "latency_p50_ms", median_of(reps, [](const Rep& r) { return r.latency.p50_ms; }), "ms");
  add(out, "latency_p90_ms", median_of(reps, [](const Rep& r) { return r.latency.p90_ms; }), "ms");
  add(out, "latency_p99_ms", median_of(reps, [](const Rep& r) { return r.latency.p99_ms; }), "ms");
  add(out, "cpu_ns_per_event",
      median_of(reps, [](const Rep& r) { return r.cpu_ns_per_event; }), "ns");
  // Each repetition's peak (in-process: since a reset at its start, so
  // memory the allocator kept from earlier ones sets its floor), then their
  // median, so one repetition's transient queue build-up does not set it.
  add(out, "peak_rss_mb", median_of(reps, [](const Rep& r) { return r.peak_rss_mb; }), "MB");
  add(out, "setup_s", setup_s, "s");
  add(out, "failed_frac",
      out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 1.0,
      "share");
  std::ostringstream n;
  n.precision(4);
  n << reps.size() << " repetitions (eps, p50 ms, p99 ms, samples, RSS MB):";
  for (const Rep& r : reps)
    n << " [" << static_cast<int64_t>(r.eps) << ' ' << r.latency.p50_ms << ' '
      << r.latency.p99_ms << ' ' << r.latency.count << ' ' << r.peak_rss_mb
      << ']';
  out.notes.push_back(n.str());
}

/// Per-layer table of the traced repetitions (median per row).
void layers_of(RunResult& out, const std::vector<Rep>& traced) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  std::vector<std::string> order;
  for (const Rep& r : traced) {
    for (const LayerRow& row : r.layers) {
      if (!values.count(row.name)) order.push_back(row.name);
      values[row.name].push_back(row.value);
      units[row.name] = row.unit;
    }
  }
  for (const std::string& name : order) add(out, name, median(values[name]), units[name]);
}

/// The median set-up time of `reps`; notes its quartiles.
double setup_median(RunResult& out, const std::vector<Rep>& reps) {
  std::vector<double> s;
  for (const Rep& r : reps) s.push_back(r.setup_s * 1e3);
  std::sort(s.begin(), s.end());
  std::ostringstream n;
  n.precision(4);
  n << "set-up: " << s.size() << " deployments, min " << s.front() << " q1 " << s[s.size() / 4]
    << " median " << median(s) << " q3 " << s[s.size() * 3 / 4] << " max " << s.back() << " ms";
  out.notes.push_back(n.str());
  return median(s) / 1e3;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  RunResult out;
  const std::string& w = cfg.workload;
  std::function<Rep(bool)> body;
  std::function<Rep()> setup_body;
  EtlSetup etl;
  if (w == "etl_taxi" || w == "etl_taxi_proc") {
    etl = etl_setup(cfg, cfg.trace);
    if (cfg.trace) add(out, "etl_taxi.single_thread_eps", etl.single_thread_eps, "1/s");
  }
  if (w == "etl_taxi") {
    body = [&](bool traced) { return etl_rep(etl, traced); };
    setup_body = [&] { return etl_rep(etl, false, kSetupEvents); };
  } else if (w == "relay_tcp" || w == "relay_paced") {
    const bool paced = w == "relay_paced";
    const uint64_t packets = paced ? kPacedPackets : kRelayTcpPackets;
    body = [&, paced, packets](bool traced) {
      return relay_rep(paced, cfg.seed, traced, packets);
    };
    setup_body = [&, paced] { return relay_rep(paced, cfg.seed, false, kSetupEvents); };
  } else if (w == "etl_taxi_proc") {
    ProcEnv env = proc_env(cfg, etl);
    if (!cfg.trace) {
      // Set-up: spawn + wiring + teardown of a trivially short deployment.
      std::vector<Rep> setups;
      std::vector<Rep> reps = repeat(cfg.seconds, 2, [&] {
        for (int i = 0; i < kSetupsPerRep; ++i)
          setups.push_back(proc_rep(env, false, 200, kSetupEvents));
        return proc_rep(env, false, 200);
      });
      account(out, setups, "set-up deployment");
      account(out, reps, "etl_taxi_proc");
      end_to_end(out, reps, setup_median(out, setups));
    } else {
      const Rep with_ckpt = proc_rep(env, false, 200);
      const Rep traced = proc_rep(env, true, 200);
      const Rep no_ckpt = proc_rep(env, false, 0);
      const Rep inproc = etl_rep(etl, false);
      account(out, {with_ckpt, traced, no_ckpt, inproc}, "etl_taxi_proc traced run");
      layers_of(out, {traced});
      add(out, "trace.overhead_share", 1 - traced.eps / with_ckpt.eps, "share");
      add(out, "proc.checkpoints_per_s", with_ckpt.checkpoints_per_s, "1/s");
      add(out, "proc.checkpoint_cost_share", 1 - with_ckpt.eps / no_ckpt.eps, "share");
      add(out, "proc.deploy_overhead_share", 1 - no_ckpt.eps / inproc.eps, "share");
      add(out, "proc.worker_cpu_ns_per_event", with_ckpt.worker_cpu_ns_per_event, "ns");
      add(out, "proc.supervisor_cpu_ns_per_event", with_ckpt.supervisor_cpu_ns_per_event, "ns");
    }
    std::error_code ec;
    fs::remove_all(env.work_root, ec);
    return out;
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }

  if (!cfg.trace) {
    // One full-size warm-up repetition (checked and counted, not measured)
    // lets allocator pools and socket buffers reach their working size.
    account(out, {body(false)}, "warm-up");
    std::vector<Rep> setups;
    std::vector<Rep> reps = repeat(cfg.seconds, 2, [&] {
      for (int i = 0; i < kSetupsPerRep; ++i) setups.push_back(setup_body());
      return body(false);
    });
    account(out, setups, "set-up deployment");
    account(out, reps, w);
    end_to_end(out, reps, setup_median(out, setups));
  } else {
    // Untraced and traced repetitions alternate, so both see the same
    // machine state; trace.overhead_share compares their medians.
    std::vector<Rep> plain, traced;
    const int64_t start = now_ns();
    do {
      plain.push_back(body(false));
      traced.push_back(body(true));
    } while (static_cast<double>(now_ns() - start) / 1e9 < cfg.seconds);
    account(out, plain, w);
    account(out, traced, w + " traced");
    layers_of(out, traced);
    const double eps_plain = median_of(plain, [](const Rep& r) { return r.eps; });
    const double eps_traced = median_of(traced, [](const Rep& r) { return r.eps; });
    add(out, "trace.overhead_share", 1 - eps_traced / eps_plain, "share");
  }
  return out;
}

}  // namespace perfbench
