#include "probes.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "common/clock.hpp"

namespace perfbench {

using neptune::BatchView;
using neptune::ByteBuffer;
using neptune::ByteReader;
using neptune::Checkpointable;
using neptune::Emitter;
using neptune::EmitStatus;
using neptune::now_ns;
using neptune::PacketView;
using neptune::StreamPacket;
using neptune::StreamProcessor;
using neptune::StreamSource;

OpTimes& ProbeRegistry::create(const std::string& op, bool source, int resource) {
  auto t = std::make_shared<OpTimes>();
  t->op = op;
  t->source = source;
  t->resource = resource;
  std::lock_guard<std::mutex> lock(mu_);
  all_.push_back(t);
  return *t;
}

std::vector<std::shared_ptr<OpTimes>> ProbeRegistry::by_operator() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<OpTimes>> out;
  std::map<std::string, size_t> index;
  auto r = std::memory_order_relaxed;
  for (const auto& t : all_) {
    auto [it, fresh] = index.emplace(t->op, out.size());
    if (fresh) {
      auto sum = std::make_shared<OpTimes>();
      sum->op = t->op;
      sum->source = t->source;
      sum->resource = t->resource;
      out.push_back(sum);
    }
    OpTimes& s = *out[it->second];
    OpTimes::add(s.call_ns, t->call_ns.load(r));
    OpTimes::add(s.emit_ns, t->emit_ns.load(r));
    OpTimes::add(s.pkts_in, t->pkts_in.load(r));
    OpTimes::add(s.pkts_out, t->pkts_out.load(r));
  }
  return out;
}

void TapStats::on_packet(int64_t now, int64_t event_time_ns, int64_t seq) {
  auto r = std::memory_order_relaxed;
  const int64_t lat = now - event_time_ns;
  latency_.record(lat > 0 ? static_cast<uint64_t>(lat) : 0);  // single writer
  arrivals_.store(arrivals_.load(r) + 1, r);
  if (latency_limit_ns_ > 0 && lat > latency_limit_ns_) late_.store(late_.load(r) + 1, r);
  if (check_seq_) {
    const int64_t want = next_seq_.load(r);
    if (seq == want) {
      in_order_.store(in_order_.load(r) + 1, r);
      next_seq_.store(want + 1, r);
    } else if (seq > want) {
      next_seq_.store(seq + 1, r);  // gap: the skipped packets are lost
    }
    // seq < want: duplicate or out of order; counted in arrivals only
  }
  last_arrival_ns_.store(now, r);
}

uint64_t TapStats::failed(uint64_t events) const {
  const uint64_t ok = std::min(events, in_order());
  const uint64_t extra = arrivals() - in_order();
  return std::min(events, events - ok + extra + late());
}

namespace {

/// Forwards every emit to the runtime's emitter and times it.
class TimingEmitter final : public Emitter {
 public:
  explicit TimingEmitter(OpTimes& t) : t_(t) {}
  void bind(Emitter& inner) { inner_ = &inner; }

  EmitStatus emit(StreamPacket&& p) override { return emit(size_t{0}, std::move(p)); }
  EmitStatus emit(size_t link, StreamPacket&& p) override {
    const int64_t t0 = now_ns();
    EmitStatus s = inner_->emit(link, std::move(p));
    OpTimes::add(t_.emit_ns, now_ns() - t0);
    OpTimes::add(t_.pkts_out, uint64_t{1});
    return s;
  }
  EmitStatus emit(const PacketView& v) override { return emit(size_t{0}, v); }
  EmitStatus emit(size_t link, const PacketView& v) override {
    const int64_t t0 = now_ns();
    EmitStatus s = inner_->emit(link, v);
    OpTimes::add(t_.emit_ns, now_ns() - t0);
    OpTimes::add(t_.pkts_out, uint64_t{1});
    return s;
  }
  size_t output_link_count() const override { return inner_->output_link_count(); }
  uint32_t instance() const override { return inner_->instance(); }
  uint64_t packets_emitted() const override { return inner_->packets_emitted(); }

 private:
  OpTimes& t_;
  Emitter* inner_ = nullptr;
};

/// Checkpointable forwarding, so checkpoint epochs still capture the
/// wrapped operator's state (an operator without state writes nothing).
class ForwardState : public Checkpointable {
 protected:
  explicit ForwardState(Checkpointable* inner) : state_(inner) {}
  void snapshot_state(ByteBuffer& out) const override {
    if (state_) state_->snapshot_state(out);
  }
  void restore_state(ByteReader& in) override {
    if (state_) state_->restore_state(in);
  }

 private:
  Checkpointable* state_;
};

class TimedSource final : public StreamSource, public ForwardState {
 public:
  TimedSource(std::unique_ptr<StreamSource> inner, OpTimes& t)
      : ForwardState(dynamic_cast<Checkpointable*>(inner.get())),
        inner_(std::move(inner)),
        t_(t),
        out_(t) {}
  void open(uint32_t i, uint32_t n) override { inner_->open(i, n); }
  bool next(Emitter& out, size_t budget) override {
    out_.bind(out);
    const int64_t t0 = now_ns();
    bool more = inner_->next(out_, budget);
    OpTimes::add(t_.call_ns, now_ns() - t0);
    return more;
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<StreamSource> inner_;
  OpTimes& t_;
  TimingEmitter out_;
};

/// Marks the first call into a source: the start of the throughput window.
class MarkedSource final : public StreamSource, public ForwardState {
 public:
  MarkedSource(std::unique_ptr<StreamSource> inner, TapStats& tap)
      : ForwardState(dynamic_cast<Checkpointable*>(inner.get())),
        inner_(std::move(inner)),
        tap_(tap) {}
  void open(uint32_t i, uint32_t n) override { inner_->open(i, n); }
  bool next(Emitter& out, size_t budget) override {
    if (!marked_) {
      tap_.mark_first_emit(now_ns());
      marked_ = true;
    }
    return inner_->next(out, budget);
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<StreamSource> inner_;
  TapStats& tap_;
  bool marked_ = false;
};

class TimedProcessor final : public StreamProcessor, public ForwardState {
 public:
  TimedProcessor(std::unique_ptr<StreamProcessor> inner, OpTimes& t)
      : ForwardState(dynamic_cast<Checkpointable*>(inner.get())),
        inner_(std::move(inner)),
        t_(t),
        out_(t) {}
  void open(uint32_t i, uint32_t n) override { inner_->open(i, n); }
  void process(StreamPacket& p, Emitter& out) override {
    out_.bind(out);
    const int64_t t0 = now_ns();
    inner_->process(p, out_);
    OpTimes::add(t_.call_ns, now_ns() - t0);
    OpTimes::add(t_.pkts_in, uint64_t{1});
  }
  bool prefers_batches() const override { return inner_->prefers_batches(); }
  void on_batch(BatchView& batch, Emitter& out) override {
    out_.bind(out);
    const uint64_t n = batch.size();
    const int64_t t0 = now_ns();
    inner_->on_batch(batch, out_);
    OpTimes::add(t_.call_ns, now_ns() - t0);
    OpTimes::add(t_.pkts_in, n);
  }
  void close(Emitter& out) override {
    out_.bind(out);
    const int64_t t0 = now_ns();
    inner_->close(out_);
    OpTimes::add(t_.call_ns, now_ns() - t0);
  }

 private:
  std::unique_ptr<StreamProcessor> inner_;
  OpTimes& t_;
  TimingEmitter out_;
};

/// The benchmark's latency definition: arrival at the sink operator minus
/// the packet's event time (the runtime's ingest stamp, or the due time a
/// paced source wrote). Arrival is taken once per dispatch call — per packet
/// on the process() path, per batch on the on_batch() path, where the tap
/// walks a copy of the BatchView so the wrapped sink still sees every packet.
class SinkTap final : public StreamProcessor, public ForwardState {
 public:
  SinkTap(std::unique_ptr<StreamProcessor> inner, TapStats& tap)
      : ForwardState(dynamic_cast<Checkpointable*>(inner.get())),
        inner_(std::move(inner)),
        tap_(tap) {}
  void open(uint32_t i, uint32_t n) override { inner_->open(i, n); }
  void process(StreamPacket& p, Emitter& out) override {
    tap_.on_packet(now_ns(), p.event_time_ns(), tap_.check_seq() ? p.i64(0) : 0);
    inner_->process(p, out);
  }
  bool prefers_batches() const override { return inner_->prefers_batches(); }
  void on_batch(BatchView& batch, Emitter& out) override {
    const int64_t now = now_ns();
    BatchView copy = batch;
    while (copy.next(view_)) {
      tap_.on_packet(now, view_.event_time_ns(), tap_.check_seq() ? view_.i64(0) : 0);
    }
    inner_->on_batch(batch, out);
  }
  void close(Emitter& out) override { inner_->close(out); }

 private:
  std::unique_ptr<StreamProcessor> inner_;
  TapStats& tap_;
  PacketView view_;
};

}  // namespace

neptune::StreamGraph wrap_graph(const neptune::StreamGraph& graph, const WrapOptions& opts) {
  neptune::StreamGraph out(graph.name(), graph.config());
  const auto& ops = graph.operators();
  uint32_t sink_instances = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == neptune::OperatorKind::kProcessor && graph.outputs_of(i).empty())
      sink_instances += ops[i].parallelism;
  }
  if (opts.tap && sink_instances != 1)
    throw std::invalid_argument("wrap_graph: the sink tap needs exactly one sink instance");
  for (size_t i = 0; i < ops.size(); ++i) {
    const neptune::OperatorDecl& d = ops[i];
    ProbeRegistry* probes = opts.probes;
    if (d.kind == neptune::OperatorKind::kSource) {
      neptune::SourceFactory inner = d.source_factory;
      TapStats* tap = opts.tap;
      out.add_source(
          d.id,
          [inner, probes, tap, id = d.id, res = d.resource]() -> std::unique_ptr<StreamSource> {
            auto src = inner();
            if (probes)
              src = std::make_unique<TimedSource>(std::move(src), probes->create(id, true, res));
            if (tap) src = std::make_unique<MarkedSource>(std::move(src), *tap);
            return src;
          },
          d.parallelism, d.resource);
    } else {
      neptune::ProcessorFactory inner = d.processor_factory;
      TapStats* tap = graph.outputs_of(i).empty() ? opts.tap : nullptr;
      out.add_processor(
          d.id,
          [inner, probes, tap, id = d.id,
           res = d.resource]() -> std::unique_ptr<StreamProcessor> {
            auto p = inner();
            if (probes)
              p = std::make_unique<TimedProcessor>(std::move(p), probes->create(id, false, res));
            if (tap) p = std::make_unique<SinkTap>(std::move(p), *tap);
            return p;
          },
          d.parallelism, d.resource);
    }
  }
  for (const neptune::LinkDecl& l : graph.links()) {
    out.connect(ops[l.from_op].id, ops[l.to_op].id, l.partitioning, l.compression,
                l.buffer_override, l.qos, l.shed);
  }
  return out;
}

}  // namespace perfbench
