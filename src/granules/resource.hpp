// A Granules resource (paper §II): the container process-within-a-process
// that hosts computational tasks, runs the two-tier thread model (worker
// pool + IO pool, paper §III: "a simplified 2-tier thread model"), and
// schedules tasks per their strategies.
//
// Scheduling state machine per task (lock-free fast path):
//
//        notify()                 worker picks up             execute returns
//   Idle ---------> Queued ------------------------> Running -----------------> Idle
//     ^               ^                                 | notify() while running
//     |               +------ re-enqueued <--- RunningDirty
//     | park deadline passes (a worker releases it: enqueue, as a notify)
//   parked (still Idle; request_reschedule_after)
//
// The Running/RunningDirty split guarantees (a) at most one thread runs a
// task instance at any time and (b) no lost wakeups — both are required
// for NEPTUNE's in-order, exactly-once packet processing. A parked task is
// an Idle task with a deadline in the resource's park list: workers release
// due entries between tasks and block on the run queue only until the
// earliest deadline.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/queues.hpp"
#include "granules/task.hpp"
#include "net/event_loop.hpp"
#include "obs/telemetry.hpp"

namespace neptune::granules {

struct ResourceConfig {
  std::string name = "resource";
  /// 0 = one per hardware thread (the paper: "thread pool sizes are
  /// determined automatically depending on the number of cores").
  size_t worker_threads = 0;
  size_t io_threads = 1;
  /// Capacity of the runnable-task queue (tasks, not packets).
  size_t run_queue_capacity = 4096;
};

struct ResourceStats {
  uint64_t task_executions = 0;   ///< scheduled executions across all tasks
  uint64_t scheduler_wakeups = 0;  ///< worker dequeue operations
};

class Resource {
 public:
  explicit Resource(ResourceConfig config = {});
  ~Resource();
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Register a task; returns its id. Must be called before start(), or
  /// while running (dynamic deployment).
  uint64_t deploy(std::shared_ptr<ComputationalTask> task, ScheduleSpec schedule);

  void start();
  /// Graceful stop: drains nothing further, terminates tasks, joins threads.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Mark a task runnable because data arrived for it (dataset callback).
  void notify_data(uint64_t task_id);

  /// IO event loops (the second thread tier).
  EventLoop* io_loop(size_t i = 0) { return io_loops_.at(i % io_loops_.size()).get(); }
  size_t io_loop_count() const { return io_loops_.size(); }

  size_t worker_count() const { return worker_threads_.size(); }
  const std::string& name() const { return config_.name; }

  ResourceStats stats() const;

 private:
  enum class RunState : uint8_t { kIdle, kQueued, kRunning, kRunningDirty, kTerminated };

  struct TaskEntry : TaskContext {
    // TaskContext
    uint64_t task_id() const override { return id; }
    uint64_t execution_count() const override {
      return executions.load(std::memory_order_relaxed);
    }
    void request_reschedule() override;
    void request_reschedule_after(int64_t delay_ns) override;
    void request_termination() override;

    uint64_t id = 0;
    std::shared_ptr<ComputationalTask> task;
    ScheduleSpec schedule;
    std::atomic<RunState> state{RunState::kIdle};
    std::atomic<uint64_t> executions{0};
    std::atomic<bool> initialized{false};
    std::atomic<bool> terminate_requested{false};
    EventLoop::TimerId timer_id = 0;
    Resource* owner = nullptr;
    /// Park deadline (now_ns() clock) while in parked_; 0 when not parked.
    /// Guarded by the owner's parked_mu_.
    int64_t park_deadline_ns = 0;
  };

  static constexpr int64_t kNoPark = std::numeric_limits<int64_t>::max();

  void worker_main(size_t worker_index);
  void enqueue(TaskEntry* entry);
  void run_task(TaskEntry* entry);
  void arm_periodic_timer(TaskEntry* entry);
  void park(TaskEntry* entry, int64_t deadline_ns);
  /// Enqueue every parked task due by `now`; returns the earliest deadline
  /// still parked (kNoPark when none).
  int64_t release_due_parked(int64_t now);

  ResourceConfig config_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Loops retired by stop(): stopped and joined, but kept alive because task
  // entries (and the channels inside them) hold raw EventLoop* and may still
  // post during their own teardown. Declared before tasks_ so they are
  // destroyed after every task entry is gone.
  std::vector<std::unique_ptr<EventLoop>> retired_loops_;

  std::mutex tasks_mu_;
  std::vector<std::unique_ptr<TaskEntry>> tasks_;
  std::atomic<uint64_t> next_task_id_{1};

  /// Runnable tasks. A nullptr entry is a kick: it wakes one blocked
  /// worker to re-read the park deadline.
  BoundedQueue<TaskEntry*> run_queue_;

  // Parked tasks (request_reschedule_after). next_park_ns_ is the earliest
  // deadline, or kNoPark: a worker's only cost while nothing is parked is
  // loading it. It may run early (a re-park moved a deadline later), never
  // late.
  std::mutex parked_mu_;
  std::vector<TaskEntry*> parked_;
  std::atomic<int64_t> next_park_ns_{kNoPark};

  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<EventLoop>> io_loops_;
  std::vector<std::thread> io_threads_;

  std::atomic<uint64_t> task_executions_{0};
  std::atomic<uint64_t> scheduler_wakeups_{0};

  // Telemetry series scoped to start()..stop(): run-queue depth gauge and
  // scheduler counters. Samplers capture `this`; stop() resets the handles
  // (which blocks out in-flight samples) before threads are torn down.
  std::vector<obs::TelemetryRegistry::Handle> telemetry_;
};

}  // namespace neptune::granules
