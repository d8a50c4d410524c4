// The traced run's per-layer table: what the decorators, /proc, the
// runtime's JobMetricsSnapshot / TelemetryRegistry / sampled batch spans and
// the unit-cost micro-timings say about one repetition, reduced to the
// per-layer metrics of README.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "neptune/graph.hpp"
#include "neptune/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "procstat.hpp"

namespace perfbench {

/// Runtime counters of one operator (instances summed), from
/// JobMetricsSnapshot in-process or from TelemetryRegistry series in a
/// neptuned worker.
struct OpCounters {
  std::string op;
  double packets_in = 0;
  double packets_out = 0;
  double bytes_out = 0;
  double flushes = 0;
  double timer_flushes = -1;  ///< -1: not exported (telemetry has no series)
  double blocked_ns = 0;
  double executions = 0;
  double serde_alloc_bytes = 0;
  double frame_copies = 0;
};
std::vector<OpCounters> counters_of(const neptune::JobMetricsSnapshot& snap);

/// One sampled series of the global TelemetryRegistry.
struct Series {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};
std::vector<Series> sample_telemetry();
/// Sum of the series called `name` whose labels include `label`=`value`
/// (every series of that name when `label` is empty).
double series_sum(const std::vector<Series>& all, const std::string& name,
                  const std::string& label = "", const std::string& value = "");
/// Per-operator counters rebuilt from a telemetry sample.
std::vector<OpCounters> counters_from_telemetry(const std::vector<Series>& all);

/// Unit costs of the program's public serde/frame/CRC calls, timed on the
/// workload's own packets and frame size.
struct UnitCosts {
  double serialize_ns_per_pkt = 0;
  double deserialize_ns_per_pkt = 0;
  double frame_encode_ns_per_kb = 0;  ///< encode_frame, CRC included
  double frame_decode_ns_per_kb = 0;  ///< decode_frame, CRC check included
  double crc32_ns_per_kb = 0;
  double frame_bytes = 0;  ///< payload size the frame timings used
};
/// Pushes the first `sample` source packets of `graph` through fresh
/// operator instances (no runtime) to collect every hop's packets, then
/// times the calls on them. `frame_bytes` is the mean frame payload of the
/// measured run.
UnitCosts time_unit_costs(const neptune::StreamGraph& graph, double frame_bytes,
                          size_t sample = 2048);

/// Everything one traced repetition measured.
struct TraceInputs {
  uint64_t events = 0;  ///< source events
  double wall_s = 0;
  std::vector<std::shared_ptr<OpTimes>> ops;
  std::vector<OpCounters> counters;
  std::vector<ThreadStat> threads;  ///< runtime threads, deltas over the repetition
  int64_t process_cpu_ns = 0;       ///< all CPU the repetition cost (children included)
  int64_t supervisor_cpu_ns = 0;    ///< etl_taxi_proc: the supervisor, a layer of its own
  std::vector<neptune::obs::TraceSpan> spans;
  std::map<uint32_t, std::string> link_names;  ///< link id -> "from->to"
  std::map<std::string, double> tcp;           ///< neptune_tcp_* deltas
  double wakeups = 0;                          ///< granules scheduler wakeups
  UnitCosts unit;
};

struct LayerRow {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The full table, detail rows (per operator, resource, link) included.
std::vector<LayerRow> compute_layers(const TraceInputs& in);

}  // namespace perfbench
