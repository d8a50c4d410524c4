#include "neptune/metrics.hpp"

#include <cstdio>

namespace neptune {

std::string format_metrics(const JobMetricsSnapshot& snap) {
  // Aggregate instances per operator id, preserving first-seen order.
  std::vector<std::string> order;
  std::map<std::string, OperatorMetricsSnapshot> agg;
  for (const auto& m : snap.operators) {
    auto [it, inserted] = agg.try_emplace(m.operator_id);
    if (inserted) {
      order.push_back(m.operator_id);
      it->second.operator_id = m.operator_id;
    }
    OperatorMetricsSnapshot& a = it->second;
    a.packets_in += m.packets_in;
    a.packets_out += m.packets_out;
    a.bytes_in += m.bytes_in;
    a.bytes_out += m.bytes_out;
    a.flushes += m.flushes;
    a.timer_flushes += m.timer_flushes;
    a.blocked_sends += m.blocked_sends;
    a.blocked_ns += m.blocked_ns;
    a.seq_violations += m.seq_violations;
    a.executions += m.executions;
    a.idle_parks += m.idle_parks;
    a.reconnects += m.reconnects;
    a.corrupt_frames_dropped += m.corrupt_frames_dropped;
    a.dup_frames_dropped += m.dup_frames_dropped;
    a.packets_shed += m.packets_shed;
    a.batches_shed += m.batches_shed;
    a.shed_bytes += m.shed_bytes;
    a.shed_gaps += m.shed_gaps;
    a.packets_quarantined += m.packets_quarantined;
    a.deadline_overruns += m.deadline_overruns;
    a.watchdog_stalls += m.watchdog_stalls;
    // Keep the worst sink percentile across instances.
    a.sink_latency_p99_ns = std::max(a.sink_latency_p99_ns, m.sink_latency_p99_ns);
    a.sink_latency_p999_ns = std::max(a.sink_latency_p999_ns, m.sink_latency_p999_ns);
    a.sink_latency_p50_ns = std::max(a.sink_latency_p50_ns, m.sink_latency_p50_ns);
    a.sink_latency_count += m.sink_latency_count;
    a.sink_latency_saturated += m.sink_latency_saturated;
  }

  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-14s %12s %12s %12s %10s %8s %11s %9s\n", "operator",
                "pkts-in", "pkts-out", "wire-out-B", "flushes", "blocked", "blocked-ms",
                "seq-viol");
  out += line;
  for (const auto& id : order) {
    const auto& a = agg[id];
    std::snprintf(line, sizeof line, "%-14s %12llu %12llu %12llu %10llu %8llu %11.3f %9llu\n",
                  id.c_str(), static_cast<unsigned long long>(a.packets_in),
                  static_cast<unsigned long long>(a.packets_out),
                  static_cast<unsigned long long>(a.bytes_out),
                  static_cast<unsigned long long>(a.flushes),
                  static_cast<unsigned long long>(a.blocked_sends),
                  static_cast<double>(a.blocked_ns) * 1e-6,
                  static_cast<unsigned long long>(a.seq_violations));
    out += line;
    if (a.sink_latency_count > 0) {
      std::snprintf(line, sizeof line,
                    "%-14s   sink latency p50=%.3f ms p99=%.3f ms p99.9=%.3f ms (n=%llu%s)\n",
                    "", static_cast<double>(a.sink_latency_p50_ns) * 1e-6,
                    static_cast<double>(a.sink_latency_p99_ns) * 1e-6,
                    static_cast<double>(a.sink_latency_p999_ns) * 1e-6,
                    static_cast<unsigned long long>(a.sink_latency_count),
                    a.sink_latency_saturated > 0 ? ", saturated" : "");
      out += line;
    }
  }
  uint64_t reconnects = 0, corrupt = 0, dups = 0;
  uint64_t shed = 0, quarantined = 0, overruns = 0, stalls = 0;
  for (const auto& m : snap.operators) {
    reconnects += m.reconnects;
    corrupt += m.corrupt_frames_dropped;
    dups += m.dup_frames_dropped;
    shed += m.packets_shed;
    quarantined += m.packets_quarantined;
    overruns += m.deadline_overruns;
    stalls += m.watchdog_stalls;
  }
  if (shed + quarantined + overruns + stalls > 0) {
    std::snprintf(line, sizeof line,
                  "overload: shed=%llu quarantined=%llu deadline-overruns=%llu "
                  "watchdog-stalls=%llu\n",
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(quarantined),
                  static_cast<unsigned long long>(overruns),
                  static_cast<unsigned long long>(stalls));
    out += line;
  }
  if (reconnects + corrupt + dups + snap.checkpoints_taken + snap.recoveries > 0) {
    std::snprintf(line, sizeof line,
                  "robustness: reconnects=%llu corrupt-dropped=%llu dup-dropped=%llu "
                  "checkpoints=%llu recoveries=%llu recovery=%.3f ms\n",
                  static_cast<unsigned long long>(reconnects),
                  static_cast<unsigned long long>(corrupt),
                  static_cast<unsigned long long>(dups),
                  static_cast<unsigned long long>(snap.checkpoints_taken),
                  static_cast<unsigned long long>(snap.recoveries),
                  static_cast<double>(snap.recovery_ns) * 1e-6);
    out += line;
  }
  std::snprintf(line, sizeof line, "wall time: %.3f s\n", snap.seconds());
  out += line;
  return out;
}

}  // namespace neptune
