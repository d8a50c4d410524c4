#include "proc/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

#include "common/log.hpp"
#include "fault/fault_injector.hpp"
#include "fault/snapshot_store.hpp"
#include "proc/control.hpp"
#include "proc/slice.hpp"
#include "scenarios/scenario.hpp"

namespace neptune::proc {

namespace {

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fires the worker's event-triggered chaos actions from inside the
/// dispatch path. It counts packets in exactly as the heartbeat's "in"
/// does; when the count reaches an action's threshold, the dispatching
/// thread reports the action on the control channel and then raises the
/// action's signal on this process, so the report is written even when the
/// signal is SIGKILL.
class ChaosTrigger {
 public:
  ChaosTrigger(std::vector<WorkerOptions::ChaosEvent> events, int control_fd,
               std::mutex& send_mu)
      : events_(std::move(events)), ctl_(::dup(control_fd)), send_mu_(send_mu) {}

  void count(uint64_t packets) {
    uint64_t before = in_.fetch_add(packets, std::memory_order_relaxed);
    for (const WorkerOptions::ChaosEvent& e : events_) {
      if (before < e.at_events && before + packets >= e.at_events) fire(e);
    }
  }

 private:
  void fire(const WorkerOptions::ChaosEvent& e) {
    JsonValue msg = control_message("chaos");
    msg.as_object()["index"] = JsonValue(static_cast<int64_t>(e.index));
    {
      std::lock_guard lk(send_mu_);
      ctl_.send(msg);
    }
    ::kill(::getpid(), e.signal);
  }

  const std::vector<WorkerOptions::ChaosEvent> events_;
  std::atomic<uint64_t> in_{0};
  ControlChannel ctl_;  // a dup of the control fd, written only under send_mu_
  std::mutex& send_mu_;
};

/// Counts every packet into the trigger before the wrapped operator sees
/// it; everything else, state included, is forwarded.
class CountedProcessor final : public StreamProcessor, public Checkpointable {
 public:
  CountedProcessor(std::unique_ptr<StreamProcessor> inner, std::shared_ptr<ChaosTrigger> trigger)
      : inner_(std::move(inner)),
        state_(dynamic_cast<Checkpointable*>(inner_.get())),
        trigger_(std::move(trigger)) {}

  void open(uint32_t instance, uint32_t parallelism) override {
    inner_->open(instance, parallelism);
  }
  void process(StreamPacket& packet, Emitter& out) override {
    trigger_->count(1);
    inner_->process(packet, out);
  }
  bool prefers_batches() const override { return inner_->prefers_batches(); }
  void on_batch(BatchView& batch, Emitter& out) override {
    trigger_->count(batch.size());
    inner_->on_batch(batch, out);
  }
  void close(Emitter& out) override { inner_->close(out); }
  void snapshot_state(ByteBuffer& out) const override {
    if (state_) state_->snapshot_state(out);
  }
  void restore_state(ByteReader& in) override {
    if (state_) state_->restore_state(in);
  }

 private:
  std::unique_ptr<StreamProcessor> inner_;
  Checkpointable* state_;
  std::shared_ptr<ChaosTrigger> trigger_;
};

/// `graph` with every processor wrapped in a CountedProcessor feeding
/// `trigger`. Links are re-declared in order, so ids are unchanged.
StreamGraph with_chaos_trigger(const StreamGraph& graph, std::shared_ptr<ChaosTrigger> trigger) {
  StreamGraph out(graph.name(), graph.config());
  for (const OperatorDecl& op : graph.operators()) {
    if (op.kind == OperatorKind::kSource) {
      out.add_source(op.id, op.source_factory, op.parallelism, op.resource);
    } else {
      out.add_processor(
          op.id,
          [inner = op.processor_factory, trigger]() -> std::unique_ptr<StreamProcessor> {
            return std::make_unique<CountedProcessor>(inner(), trigger);
          },
          op.parallelism, op.resource);
    }
  }
  for (const LinkDecl& l : graph.links()) {
    out.connect(graph.operators()[l.from_op].id, graph.operators()[l.to_op].id, l.partitioning,
                l.compression, l.buffer_override, l.qos, l.shed);
  }
  return out;
}

JsonValue stat_message(const Job& job, const char* type) {
  JobMetricsSnapshot m = job.metrics();
  uint64_t in = 0, out = 0, flush = 0, seq = 0;
  bool busy = false;
  for (const auto& op : m.operators) {
    in += op.packets_in;
    out += op.packets_out;
    flush += op.flushes;
    seq += op.seq_violations;
    if (op.exec_begin_ns != 0 || op.inbound_ready_batches > 0) busy = true;
  }
  JsonValue msg = control_message(type);
  JsonObject& o = msg.as_object();
  o["in"] = JsonValue(static_cast<int64_t>(in));
  o["out"] = JsonValue(static_cast<int64_t>(out));
  o["flush"] = JsonValue(static_cast<int64_t>(flush));
  o["seq"] = JsonValue(static_cast<int64_t>(seq));
  o["busy"] = JsonValue(busy);
  return msg;
}

}  // namespace

int run_worker(const WorkerOptions& opts) {
  ControlChannel ctl(opts.control_fd);
  // Chaos triggers report from dispatch threads; every send takes this.
  std::mutex send_mu;
  auto send = [&](const JsonValue& msg) {
    std::lock_guard lk(send_mu);
    ctl.send(msg);
  };
  auto send_failed = [&](const std::string& what) {
    JsonValue msg = control_message("failed");
    msg.as_object()["error"] = JsonValue(what);
    msg.as_object()["generation"] = JsonValue(static_cast<int64_t>(opts.generation));
    send(msg);
  };

  try {
    scenarios::ScenarioSpec spec = scenarios::load_scenario(opts.scenario_path);
    scenarios::TraceSpec trace = spec.trace;
    if (opts.events_override > 0) trace.events = opts.events_override;

    scenarios::ScenarioContext ctx;
    StreamGraph graph = scenarios::build_scenario_graph(spec, trace, ctx, /*fastlane=*/false);
    if (!opts.chaos_events.empty()) {
      graph = with_chaos_trigger(
          graph, std::make_shared<ChaosTrigger>(opts.chaos_events, opts.control_fd, send_mu));
    }

    SlicePlan plan = plan_slices(graph, opts.total_resources);
    plan.ports = opts.ports;
    SliceOptions slice = slice_options_for(plan, opts.resource);

    granules::ResourceConfig base;
    base.worker_threads = opts.worker_threads;
    RuntimeOptions ro;
    // Cross-process edges must ride out peer restarts: workers come up in
    // arbitrary order (a sender may try to connect before its peer has
    // bound the port) and a SIGSTOPped peer looks dead for the whole gray
    // period, so the reconnect budget is far wider than the in-process
    // default. Permanent edge failure still exists — it just means the
    // supervisor's full-deployment recovery has already taken over.
    ro.supervisor.max_reconnect_attempts = 40;
    ro.supervisor.peer_timeout_ns = 2'000'000'000;
    ro.supervisor.jitter_seed = opts.resource + 1;
    if (!opts.partitions.empty()) {
      auto injector = std::make_shared<fault::FaultInjector>();
      for (const WorkerOptions::Partition& p : opts.partitions)
        injector->add_overload(fault::OverloadProfile::burst(p.at_ms * 1'000'000,
                                                             p.duration_ms * 1'000'000,
                                                             /*stall_ns=*/5'000'000));
      ro.fault_injector = std::move(injector);
    }

    Runtime runtime(1, base, ro);
    std::shared_ptr<Job> job = runtime.submit_slice(graph, slice);

    fault::SnapshotStore store(opts.snapshot_dir);
    if (opts.restore_epoch >= 0) {
      auto snap = store.load_tagged(static_cast<uint64_t>(opts.restore_epoch));
      if (!snap) {
        // The supervisor commits an epoch only after every worker acked it,
        // so a missing/corrupt file here is real trouble — report and exit
        // rather than silently starting from scratch, which would desync
        // this slice's state from the peers'.
        send_failed("restore: snapshot epoch " + std::to_string(opts.restore_epoch) +
                    " missing or corrupt in " + opts.snapshot_dir);
        return 2;
      }
      job->restore_state(*snap);
    }

    {
      JsonValue hello = control_message("hello");
      JsonObject& o = hello.as_object();
      o["resource"] = JsonValue(static_cast<int64_t>(opts.resource));
      o["pid"] = JsonValue(static_cast<int64_t>(::getpid()));
      o["generation"] = JsonValue(static_cast<int64_t>(opts.generation));
      send(hello);
    }

    // ctx.sinks registers every digest-sink in the topology, but only the
    // local instances feed their accumulators — report only those, or the
    // supervisor would merge remote sinks' zero-count ghosts.
    std::set<std::string> local_ops;
    for (const OperatorDecl& op : graph.operators()) {
      if (static_cast<size_t>(op.resource) == opts.resource) local_ops.insert(op.id);
    }

    job->start();

    bool completed_sent = false;
    bool failed_sent = false;
    int64_t last_hb = 0;
    for (;;) {
      std::optional<JsonValue> msg = ctl.poll(static_cast<int>(opts.heartbeat_interval_ms));
      if (ctl.eof()) {
        // Supervisor died: there is nobody left to coordinate recovery, so
        // tear down rather than stream into half a deployment.
        job->stop();
        return 0;
      }
      if (msg) {
        const std::string type = msg->as_object().at("type").as_string();
        if (type == "pause") {
          job->pause();
        } else if (type == "resume") {
          job->resume();
        } else if (type == "checkpoint") {
          uint64_t epoch = static_cast<uint64_t>(msg->number_or("epoch", 0));
          JsonValue ack = control_message("checkpointed");
          JsonObject& o = ack.as_object();
          o["epoch"] = JsonValue(static_cast<int64_t>(epoch));
          // The supervisor already drained the deployment globally; the
          // local quiesce is a cheap belt-and-braces check that this slice
          // really is idle before touching operator state.
          bool ok = job->quiesce(std::chrono::seconds(5));
          if (ok) ok = store.save_tagged(job->checkpoint_state(), epoch);
          o["ok"] = JsonValue(ok);
          send(ack);
        } else if (type == "stat") {
          send(stat_message(*job, "hb"));
        } else if (type == "stop") {
          job->stop();
          return 0;
        }
      }
      int64_t now = now_ms();
      if (now - last_hb >= opts.heartbeat_interval_ms) {
        last_hb = now;
        send(stat_message(*job, "hb"));
      }
      if (!completed_sent && job->completed()) {
        completed_sent = true;
        JsonValue done = control_message("completed");
        JsonObject& o = done.as_object();
        o["generation"] = JsonValue(static_cast<int64_t>(opts.generation));
        uint64_t seq = 0;
        JobMetricsSnapshot m = job->metrics();
        for (const auto& op : m.operators) seq += op.seq_violations;
        o["seq"] = JsonValue(static_cast<int64_t>(seq));
        JsonObject sinks;
        for (const auto& [id, acc] : ctx.sinks) {
          if (!local_ops.count(id)) continue;
          JsonObject s;
          s["packets"] = JsonValue(static_cast<int64_t>(acc->count()));
          s["digest"] = JsonValue(acc->digest());
          sinks[id] = JsonValue(std::move(s));
        }
        o["sinks"] = JsonValue(std::move(sinks));
        send(done);
      }
      if (!failed_sent && job->failed()) {
        failed_sent = true;
        send_failed(job->failure_reason());
      }
    }
  } catch (const std::exception& e) {
    NEPTUNE_LOG_WARN("worker r%zu: %s", opts.resource, e.what());
    send_failed(e.what());
    return 1;
  }
}

}  // namespace neptune::proc
