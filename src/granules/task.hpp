// Granules computational tasks (paper §II): the most fine-grained unit of
// execution. A task encapsulates domain logic over fine-grained data units
// and is scheduled by its resource according to a scheduling strategy
// (data-driven, periodic, count-based, or a combination).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace neptune::granules {

class Resource;

/// How a task becomes runnable (paper §II: "data driven, periodic, count
/// based or a combination of these").
struct ScheduleSpec {
  /// Run when any of the task's datasets signals data availability.
  bool data_driven = true;
  /// Also run every `period_ns` nanoseconds (0 disables the periodic part).
  int64_t period_ns = 0;
  /// Terminate the task after this many executions (0 = unbounded).
  uint64_t max_executions = 0;

  static ScheduleSpec on_data() { return {true, 0, 0}; }
  static ScheduleSpec every_ns(int64_t ns) { return {false, ns, 0}; }
  static ScheduleSpec on_data_or_every_ns(int64_t ns) { return {true, ns, 0}; }
  static ScheduleSpec count(uint64_t n, int64_t period_ns = 0) {
    return {period_ns == 0, period_ns, n};
  }
};

/// Hand to the executing task: identity plus scheduling introspection and
/// self-service controls.
class TaskContext {
 public:
  virtual ~TaskContext() = default;
  virtual uint64_t task_id() const = 0;
  virtual uint64_t execution_count() const = 0;
  /// Ask the scheduler to run this task again promptly (even without new
  /// data); used by sources that generate data.
  virtual void request_reschedule() = 0;
  /// Ask the scheduler to run this task again no sooner than `delay_ns`
  /// from now (a park). The task is idle meanwhile, so a data notify still
  /// runs it at once; used by sources that had nothing ready.
  virtual void request_reschedule_after(int64_t delay_ns) = 0;
  /// Permanently stop scheduling this task.
  virtual void request_termination() = 0;
};

/// Base class for all computational tasks.
class ComputationalTask {
 public:
  virtual ~ComputationalTask() = default;

  virtual const std::string& name() const = 0;

  /// Called once on a worker thread before the first execute().
  virtual void initialize(TaskContext& ctx) { (void)ctx; }

  /// One scheduled execution. The framework guarantees that at most one
  /// thread executes a given task instance at a time, and that executions
  /// of one instance are totally ordered (this is what makes per-operator
  /// in-order processing possible).
  virtual void execute(TaskContext& ctx) = 0;

  /// Called once after the last execute(), on a worker thread.
  virtual void terminate() {}
};

}  // namespace neptune::granules
