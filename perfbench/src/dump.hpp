// What a probed neptuned worker reports back to the benchmark: written by
// src/worker_hook.cpp when the worker exits, read by the etl_taxi_proc
// workload. One JSON file per worker process.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "procstat.hpp"

namespace perfbench {

/// Environment variable naming the directory a probed worker writes its
/// report into; unset, the worker runs without probes.
inline constexpr const char* kDumpDirEnv = "PERFBENCH_DUMP_DIR";
/// Set to "1" to add the timing decorators and /proc + telemetry sampling.
inline constexpr const char* kTraceEnv = "PERFBENCH_TRACE";

struct WorkerDump {
  // sink tap (only the worker that hosts a sink has packets)
  Histogram latency;
  int64_t first_emit_ns = 0;
  int64_t last_arrival_ns = 0;
  double peak_rss_mb = 0;
  // traced workers only
  std::vector<std::shared_ptr<OpTimes>> ops;
  std::vector<ThreadStat> threads;
  std::vector<Series> series;
  std::vector<neptune::obs::TraceSpan> spans;
};

std::string encode_dump(const WorkerDump& d);
WorkerDump decode_dump(const std::string& text);

}  // namespace perfbench
