// Worker side of a multi-process deployment: one `neptuned` process per
// resource. run_worker() loads the scenario, deploys this resource's slice
// via Runtime::submit_slice, optionally restores a checkpoint epoch, and
// then services the supervisor's control protocol over fd `control_fd`
// until told to stop. The worker never exits on local completion — the
// supervisor broadcasts "stop" only once every slice has drained, so
// cross-process EOF acks are never truncated by an early exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neptune::proc {

struct WorkerOptions {
  std::string scenario_path;
  size_t resource = 0;
  size_t total_resources = 1;
  /// Cross-edge ports in plan_slices() enumeration order.
  std::vector<uint16_t> ports;
  uint64_t events_override = 0;
  /// Per-resource snapshot directory (epoch-tagged files live here).
  std::string snapshot_dir;
  /// >= 0: restore the tagged snapshot for this epoch before starting.
  int64_t restore_epoch = -1;
  /// Deployment generation (bumped by the supervisor on every restart);
  /// echoed in hello so the supervisor can ignore zombies' stale messages.
  uint64_t generation = 0;
  int control_fd = 3;
  int64_t heartbeat_interval_ms = 25;
  size_t worker_threads = 0;
  /// Chaos-injected TCP partition windows (sender-side stalls on every
  /// edge), relative to job start.
  struct Partition {
    int64_t at_ms = 0;
    int64_t duration_ms = 0;
  };
  std::vector<Partition> partitions;
  /// Event-triggered chaos actions aimed at this worker: when its
  /// packets-in count (the heartbeat's "in") reaches `at_events`, the
  /// dispatching thread reports action `index` to the supervisor and raises
  /// `signal` on this process.
  struct ChaosEvent {
    size_t index = 0;
    int signal = 0;
    uint64_t at_events = 0;
  };
  std::vector<ChaosEvent> chaos_events;
};

/// Run one worker to completion. Returns the process exit code: 0 after a
/// clean stop (including supervisor EOF), non-zero on setup/restore
/// failure (the supervisor treats any exit as a death and recovers).
int run_worker(const WorkerOptions& opts);

}  // namespace neptune::proc
