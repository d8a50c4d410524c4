// Probes inside a neptuned worker. The perfbench build links neptuned with
// --wrap on scenarios::build_scenario_graph, so the worker's own call lands
// here: the graph it built is returned wrapped with the benchmark's sink tap
// (always) and timing decorators (PERFBENCH_TRACE=1). A sampler thread keeps
// the last /proc and telemetry readings taken while the job was alive, and
// everything is written to $PERFBENCH_DUMP_DIR/worker-<pid>.json when the
// worker exits. Without PERFBENCH_DUMP_DIR the graph is returned unchanged.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

#include "dump.hpp"
#include "obs/telemetry.hpp"
#include "scenarios/scenario.hpp"

using neptune::StreamGraph;
using neptune::scenarios::ScenarioContext;
using neptune::scenarios::ScenarioSpec;
using neptune::scenarios::TraceSpec;

StreamGraph real_build_scenario_graph(const ScenarioSpec&, const TraceSpec&, ScenarioContext&,
                                      bool) __asm__("__real_" NEPTUNE_BUILD_GRAPH_SYM);
StreamGraph wrapped_build_scenario_graph(const ScenarioSpec&, const TraceSpec&, ScenarioContext&,
                                         bool) __asm__("__wrap_" NEPTUNE_BUILD_GRAPH_SYM);

namespace {

using namespace perfbench;

/// Process-lifetime probe state of this worker (never destroyed: operator
/// instances hold references into it until the process exits).
struct Agent {
  std::string dir;
  bool traced = false;
  TapStats tap{0, false};
  ProbeRegistry probes;

  std::mutex mu;
  std::vector<ThreadStat> threads;  // guarded by mu
  std::vector<Series> series;       // guarded by mu
  std::atomic<bool> stop{false};
  std::thread sampler;

  void sample_loop() {
    while (!stop.load()) {
      std::vector<ThreadStat> t = read_threads();
      std::vector<Series> s = sample_telemetry();
      bool runtime_alive = false;
      for (const ThreadStat& x : t) runtime_alive = runtime_alive || !thread_role(x.comm).empty();
      bool job_alive = false;
      for (const Series& x : s) job_alive = job_alive || x.name == "neptune_packets_in_total";
      {
        std::lock_guard<std::mutex> lock(mu);
        if (runtime_alive) threads = std::move(t);
        if (job_alive) series = std::move(s);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  void finish() {
    if (sampler.joinable()) {
      stop.store(true);
      sampler.join();
    }
    WorkerDump d;
    d.latency = tap.latency();
    d.first_emit_ns = tap.first_emit_ns();
    d.last_arrival_ns = tap.last_arrival_ns();
    d.peak_rss_mb = peak_rss_mb();
    if (traced) {
      d.ops = probes.by_operator();
      std::lock_guard<std::mutex> lock(mu);
      d.threads = threads;
      d.series = series;
      d.spans = neptune::obs::TraceCollector::global().spans();
    }
    std::ofstream(dir + "/worker-" + std::to_string(::getpid()) + ".json") << encode_dump(d);
  }
};

Agent* g_agent = nullptr;

void finish_agent() { g_agent->finish(); }

}  // namespace

StreamGraph wrapped_build_scenario_graph(const ScenarioSpec& spec, const TraceSpec& trace,
                                         ScenarioContext& ctx, bool fastlane) {
  StreamGraph graph = real_build_scenario_graph(spec, trace, ctx, fastlane);
  const char* dir = std::getenv(kDumpDirEnv);
  if (!dir || !*dir) return graph;
  if (!g_agent) {
    // Construct the globals finish() reads before registering it, so they
    // are destroyed after it runs.
    neptune::obs::TraceCollector::global();
    neptune::obs::TelemetryRegistry::global();
    g_agent = new Agent();
    g_agent->dir = dir;
    const char* t = std::getenv(kTraceEnv);
    g_agent->traced = t && std::string(t) == "1";
    if (g_agent->traced) g_agent->sampler = std::thread([] { g_agent->sample_loop(); });
    std::atexit(finish_agent);
  }
  WrapOptions w;
  w.tap = &g_agent->tap;
  w.probes = g_agent->traced ? &g_agent->probes : nullptr;
  return wrap_graph(graph, w);
}
