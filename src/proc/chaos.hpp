// Chaos plans: a JSON schedule of *real* process faults executed by the
// ResourceSupervisor against live worker processes — SIGKILL mid-stream,
// SIGSTOP/SIGCONT gray failures, and TCP partitions (sender-side stall
// windows injected through the workers' FaultInjector). Plans are either
// fully explicit ("actions") or seeded-random ("random"), and both expand
// deterministically, so a chaos run is reproducible from its plan file.
//
// Plan shape:
// {
//   "seed": 42,
//   "actions": [
//     {"action": "kill", "resource": 1, "at_ms": 150},
//     {"action": "stop", "resource": 0, "at_events": 4000, "duration_ms": 300},
//     {"action": "partition", "resource": 1, "at_ms": 80, "duration_ms": 200}
//   ],
//   "random": {"kills": 2, "window_ms": [100, 900]}
// }
//
// Triggers (each action has exactly one):
//  * "at_ms" fires in the supervisor on wall-clock time since deployment
//    start. When its target worker has already completed (or is gone) the
//    action is counted in chaos_missed instead of executed.
//  * "at_events" fires inside the target worker's own dispatch path, when
//    that worker's packets-in count (the heartbeat's "in", counted from its
//    process start) reaches the threshold: the worker reports the action
//    on its control channel, then raises the signal on itself. This is the
//    reliable trigger for golden runs, whose trace generation is
//    simulated-time, not wall-clock paced. An event action that never
//    fires before the deployment completes is counted in chaos_missed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace neptune::proc {

struct ChaosAction {
  enum class Kind { kKill, kStop, kCont, kPartition };
  Kind kind = Kind::kKill;
  size_t resource = 0;
  int64_t at_ms = -1;       ///< wall-clock trigger (ms since start); -1 = unused
  uint64_t at_events = 0;   ///< target worker's packets-in trigger; 0 = unused
  int64_t duration_ms = 0;  ///< kStop: auto-SIGCONT after; kPartition: stall window
  bool fired = false;
};

const char* to_string(ChaosAction::Kind kind);
/// The signal a kill/stop/cont action sends (0 for a partition).
int signal_of(ChaosAction::Kind kind);

struct ChaosPlan {
  uint64_t seed = 1;
  std::vector<ChaosAction> actions;

  bool empty() const { return actions.empty(); }
  /// Parse a plan document; the "random" generator (if present) is expanded
  /// into concrete kill actions here, seeded by "seed". Throws JsonError.
  static ChaosPlan from_json(const JsonValue& doc, size_t total_resources);
  /// Read + parse a plan file. Throws std::runtime_error when unreadable.
  static ChaosPlan load(const std::string& path, size_t total_resources);
};

/// Replays a plan. The supervisor's monitor loop calls due() every tick and
/// executes whatever comes back (kill/stop/cont the matching pid); workers
/// fire the event-triggered actions and report them (mark_fired). Each
/// action fires exactly once.
class ChaosController {
 public:
  explicit ChaosController(ChaosPlan plan) : plan_(std::move(plan)) {}

  /// Time-triggered actions whose at_ms has passed and that have not fired
  /// yet. Marks them fired — the caller must execute everything returned.
  std::vector<ChaosAction*> due(int64_t elapsed_ms);

  /// A worker fired event-triggered action `index` itself. Returns the
  /// action, or nullptr when the index is unknown or already fired.
  ChaosAction* mark_fired(size_t index);

  const ChaosPlan& plan() const { return plan_; }
  uint64_t fired() const { return fired_; }
  /// True once every action has fired (chaos exhausted).
  bool exhausted() const { return fired_ == plan_.actions.size(); }

 private:
  ChaosPlan plan_;
  uint64_t fired_ = 0;
};

}  // namespace neptune::proc
