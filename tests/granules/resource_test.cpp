#include "granules/resource.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace neptune::granules {
namespace {

using namespace std::chrono_literals;

class CountingTask : public ComputationalTask {
 public:
  explicit CountingTask(std::string task_name = "counting") : name_(std::move(task_name)) {}
  const std::string& name() const override { return name_; }
  void initialize(TaskContext&) override { init_count.fetch_add(1); }
  void execute(TaskContext&) override { exec_count.fetch_add(1); }
  void terminate() override { term_count.fetch_add(1); }

  std::atomic<int> init_count{0};
  std::atomic<int> exec_count{0};
  std::atomic<int> term_count{0};

 private:
  std::string name_;
};

template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 2000) {
  for (int i = 0; i < timeout_ms / 5; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

TEST(Resource, DataDrivenTaskRunsOncePerNotify) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  EXPECT_EQ(task->exec_count.load(), 0);  // nothing until data arrives
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() == 1; }));
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() == 2; }));
  res.stop();
  EXPECT_EQ(task->init_count.load(), 1);
  EXPECT_EQ(task->term_count.load(), 1);
}

TEST(Resource, NotifyUnknownTaskIsNoop) {
  Resource res({.name = "t", .worker_threads = 1});
  res.start();
  res.notify_data(9999);
  res.stop();
  SUCCEED();
}

TEST(Resource, PeriodicTaskFiresRepeatedly) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  res.deploy(task, ScheduleSpec::every_ns(5'000'000));  // 5 ms
  res.start();
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() >= 5; }));
  res.stop();
}

TEST(Resource, CountBasedTaskStopsAfterN) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::count(3));
  res.start();
  for (int i = 0; i < 10; ++i) {
    res.notify_data(id);
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(eventually([&] { return task->term_count.load() == 1; }));
  EXPECT_EQ(task->exec_count.load(), 3);
  res.stop();
  EXPECT_EQ(task->term_count.load(), 1);  // not terminated twice
}

TEST(Resource, CountBasedPeriodicCombination) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<CountingTask>();
  res.deploy(task, ScheduleSpec::count(4, /*period_ns=*/3'000'000));
  res.start();
  ASSERT_TRUE(eventually([&] { return task->term_count.load() == 1; }));
  EXPECT_EQ(task->exec_count.load(), 4);
  res.stop();
}

class RescheduleNTimes : public ComputationalTask {
 public:
  explicit RescheduleNTimes(int n) : n_(n) {}
  const std::string& name() const override { return name_; }
  void execute(TaskContext& ctx) override {
    count.fetch_add(1);
    if (count.load() < n_) ctx.request_reschedule();
  }
  std::atomic<int> count{0};

 private:
  int n_;
  std::string name_ = "reschedule";
};

TEST(Resource, SelfRescheduleRunsUntilQuiescent) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<RescheduleNTimes>(50);
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->count.load() == 50; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(task->count.load(), 50);  // quiescent after the last run
  res.stop();
}

class SerializationProbe : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    // The framework guarantees one thread at a time per task instance.
    int in_flight = concurrent.fetch_add(1) + 1;
    if (in_flight > max_concurrent.load()) max_concurrent.store(in_flight);
    std::this_thread::sleep_for(1ms);
    concurrent.fetch_sub(1);
    runs.fetch_add(1);
  }
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int> runs{0};

 private:
  std::string name_ = "probe";
};

TEST(Resource, TaskNeverRunsConcurrentlyWithItself) {
  Resource res({.name = "t", .worker_threads = 4, .io_threads = 1});
  auto task = std::make_shared<SerializationProbe>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  // Hammer with notifies from several threads *while* executions happen, so
  // notifications overlap running state.
  std::atomic<bool> stop{false};
  std::vector<std::thread> notifiers;
  for (int t = 0; t < 4; ++t) {
    notifiers.emplace_back([&] {
      while (!stop.load()) res.notify_data(id);
    });
  }
  ASSERT_TRUE(eventually([&] { return task->runs.load() >= 10; }, 5000));
  stop.store(true);
  for (auto& t : notifiers) t.join();
  EXPECT_EQ(task->max_concurrent.load(), 1);
  res.stop();
}

class GatedTask : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    in_execute.store(true);
    while (!gate_open.load()) std::this_thread::yield();
    in_execute.store(false);
    runs.fetch_add(1);
  }
  std::atomic<bool> gate_open{false};
  std::atomic<bool> in_execute{false};
  std::atomic<int> runs{0};

 private:
  std::string name_ = "gated";
};

TEST(Resource, NotifyDuringRunIsNotLost) {
  // Running -> RunningDirty -> re-enqueue: a notify that lands mid-execution
  // must produce another execution even with no further notifies.
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<GatedTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->in_execute.load(); }));  // definitely mid-run
  res.notify_data(id);  // lands while running
  task->gate_open.store(true);
  ASSERT_TRUE(eventually([&] { return task->runs.load() >= 2; }));
  res.stop();
}

TEST(Resource, MultipleTasksShareWorkers) {
  Resource res({.name = "t", .worker_threads = 2, .io_threads = 1});
  std::vector<std::shared_ptr<CountingTask>> tasks;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(std::make_shared<CountingTask>("task" + std::to_string(i)));
    ids.push_back(res.deploy(tasks.back(), ScheduleSpec::on_data()));
  }
  res.start();
  for (int round = 0; round < 5; ++round) {
    for (uint64_t id : ids) res.notify_data(id);
  }
  ASSERT_TRUE(eventually([&] {
    for (auto& t : tasks) {
      if (t->exec_count.load() == 0) return false;
    }
    return true;
  }));
  res.stop();
  auto stats = res.stats();
  EXPECT_GT(stats.task_executions, 0u);
  EXPECT_GE(stats.scheduler_wakeups, stats.task_executions);
}

TEST(Resource, StopIsIdempotentAndRestartless) {
  Resource res({.name = "t", .worker_threads = 1});
  auto task = std::make_shared<CountingTask>();
  res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.stop();
  res.stop();  // second stop is a no-op
  SUCCEED();
}

TEST(Resource, DeployAfterStartWorks) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  res.start();
  auto task = std::make_shared<CountingTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->exec_count.load() >= 1; }));
  res.stop();
}

TEST(Resource, WorkerCountDefaultsToHardware) {
  Resource res({.name = "t", .worker_threads = 0, .io_threads = 1});
  res.start();
  EXPECT_GE(res.worker_count(), 1u);
  res.stop();
}

class ThrowingTask : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    runs.fetch_add(1);
    throw std::runtime_error("deliberate");
  }
  std::atomic<int> runs{0};

 private:
  std::string name_ = "thrower";
};

TEST(Resource, TaskExceptionsAreContained) {
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto bad = std::make_shared<ThrowingTask>();
  auto good = std::make_shared<CountingTask>();
  uint64_t bad_id = res.deploy(bad, ScheduleSpec::on_data());
  uint64_t good_id = res.deploy(good, ScheduleSpec::on_data());
  res.start();
  res.notify_data(bad_id);
  res.notify_data(good_id);
  ASSERT_TRUE(eventually([&] { return good->exec_count.load() >= 1; }));
  EXPECT_GE(bad->runs.load(), 1);  // threw but the worker survived
  res.notify_data(bad_id);
  ASSERT_TRUE(eventually([&] { return bad->runs.load() >= 2; }));
  res.stop();
}

/// Consumer of a counter a producer publishes to: each execution drains
/// everything published so far.
class DrainTask : public ComputationalTask {
 public:
  const std::string& name() const override { return name_; }
  void execute(TaskContext&) override {
    drained.store(published.load(std::memory_order_acquire), std::memory_order_release);
  }
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> drained{0};

 private:
  std::string name_ = "drain";
};

TEST(Resource, PublishThenNotifyIsNeverLost) {
  // The producer spins on `drained`, so its next publish + notify lands just
  // as the execution that drained the last one is finishing: the notify sees
  // Running, and the worker may store Idle before the notify can mark it
  // dirty. A notify lost there strands the burst for good.
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<DrainTask>();
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  const auto stop_at = std::chrono::steady_clock::now() + 1500ms;
  uint64_t bursts = 0;
  while (std::chrono::steady_clock::now() < stop_at) {
    for (uint64_t i = 0; i <= bursts % 4; ++i) {
      task->published.fetch_add(1, std::memory_order_release);
      res.notify_data(id);
    }
    const uint64_t want = task->published.load();
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (task->drained.load(std::memory_order_acquire) < want) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "burst " << bursts << " never drained: a notify was lost";
    }
    ++bursts;
  }
  res.stop();
  EXPECT_GT(bursts, 1000u);
}

/// Parks itself for `delay_ns` after each execution, `runs` times, and
/// records when each execution started.
class ParkingTask : public ComputationalTask {
 public:
  ParkingTask(int64_t delay_ns, int runs) : delay_ns_(delay_ns), runs_(runs) {}
  const std::string& name() const override { return name_; }
  void execute(TaskContext& ctx) override {
    {
      std::lock_guard lk(mu_);
      starts_.push_back(std::chrono::steady_clock::now());
    }
    if (count.fetch_add(1) + 1 < runs_) ctx.request_reschedule_after(delay_ns_);
  }
  std::vector<std::chrono::steady_clock::time_point> starts() const {
    std::lock_guard lk(mu_);
    return starts_;
  }
  std::atomic<int> count{0};

 private:
  const int64_t delay_ns_;
  const int runs_;
  mutable std::mutex mu_;
  std::vector<std::chrono::steady_clock::time_point> starts_;
  std::string name_ = "parking";
};

TEST(Resource, RescheduleAfterNeverRunsEarly) {
  constexpr int64_t kDelayNs = 2'000'000;
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<ParkingTask>(kDelayNs, 20);
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->count.load() == 20; }));
  res.stop();
  auto starts = task->starts();
  ASSERT_EQ(starts.size(), 20u);
  for (size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GE(starts[i] - starts[i - 1], std::chrono::nanoseconds(kDelayNs)) << "run " << i;
  }
}

TEST(Resource, ParkedTaskRerunsWhileOtherWorkerIsBusy) {
  Resource res({.name = "t", .worker_threads = 2, .io_threads = 1});
  auto busy = std::make_shared<GatedTask>();
  auto parker = std::make_shared<ParkingTask>(1'000'000, 10);
  uint64_t busy_id = res.deploy(busy, ScheduleSpec::on_data());
  uint64_t parker_id = res.deploy(parker, ScheduleSpec::on_data());
  res.start();
  res.notify_data(busy_id);
  ASSERT_TRUE(eventually([&] { return busy->in_execute.load(); }));  // one worker held
  res.notify_data(parker_id);
  EXPECT_TRUE(eventually([&] { return parker->count.load() == 10; }));
  EXPECT_TRUE(busy->in_execute.load());  // all ten ran on the other worker
  busy->gate_open.store(true);
  res.stop();
}

TEST(Resource, NotifyRunsParkedTaskAtOnce) {
  // A parked task is idle: a data notify runs it without waiting out the park.
  Resource res({.name = "t", .worker_threads = 1, .io_threads = 1});
  auto task = std::make_shared<ParkingTask>(60'000'000'000, 2);  // 60 s park
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->count.load() == 1; }));
  res.notify_data(id);
  EXPECT_TRUE(eventually([&] { return task->count.load() == 2; }));
  res.stop();
}

TEST(Resource, StopWithParkedTaskReturnsPromptly) {
  // stop() wakes a worker blocked until a park deadline; it does not wait
  // the park out.
  Resource res({.name = "t", .worker_threads = 2, .io_threads = 1});
  auto task = std::make_shared<ParkingTask>(60'000'000'000, 100);  // 60 s parks
  uint64_t id = res.deploy(task, ScheduleSpec::on_data());
  res.start();
  res.notify_data(id);
  ASSERT_TRUE(eventually([&] { return task->count.load() >= 1; }));
  auto t0 = std::chrono::steady_clock::now();
  res.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(task->count.load(), 1);
}

}  // namespace
}  // namespace neptune::granules
