#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "measure.hpp"
#include "net/frame.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

using neptune::ByteBuffer;
using neptune::ByteReader;
using neptune::StreamPacket;

std::vector<OpCounters> counters_of(const neptune::JobMetricsSnapshot& snap) {
  std::vector<OpCounters> out;
  std::map<std::string, size_t> index;
  for (const auto& m : snap.operators) {
    auto [it, fresh] = index.emplace(m.operator_id, out.size());
    if (fresh) {
      out.emplace_back();
      out.back().op = m.operator_id;
      out.back().timer_flushes = 0;
    }
    OpCounters& c = out[it->second];
    c.packets_in += static_cast<double>(m.packets_in);
    c.packets_out += static_cast<double>(m.packets_out);
    c.bytes_out += static_cast<double>(m.bytes_out);
    c.flushes += static_cast<double>(m.flushes);
    c.timer_flushes += static_cast<double>(m.timer_flushes);
    c.blocked_ns += static_cast<double>(m.blocked_ns);
    c.executions += static_cast<double>(m.executions);
    c.serde_alloc_bytes += static_cast<double>(m.serde_alloc_bytes);
    c.frame_copies += static_cast<double>(m.frame_copies);
  }
  return out;
}

std::vector<Series> sample_telemetry() {
  auto& reg = neptune::obs::TelemetryRegistry::global();
  std::vector<Series> out;
  for (const auto& s : reg.sample().values) {
    auto desc = reg.descriptor(s.series);
    if (!desc) continue;
    Series x;
    x.name = desc->name;
    x.labels.insert(desc->labels.begin(), desc->labels.end());
    x.value = s.value;
    out.push_back(std::move(x));
  }
  return out;
}

double series_sum(const std::vector<Series>& all, const std::string& name,
                  const std::string& label, const std::string& value) {
  double sum = 0;
  for (const Series& s : all) {
    if (s.name != name) continue;
    if (!label.empty()) {
      auto it = s.labels.find(label);
      if (it == s.labels.end() || it->second != value) continue;
    }
    sum += s.value;
  }
  return sum;
}

std::vector<OpCounters> counters_from_telemetry(const std::vector<Series>& all) {
  static const std::map<std::string, double OpCounters::*> kFields = {
      {"neptune_packets_in_total", &OpCounters::packets_in},
      {"neptune_packets_out_total", &OpCounters::packets_out},
      {"neptune_bytes_out_total", &OpCounters::bytes_out},
      {"neptune_flushes_total", &OpCounters::flushes},
      {"neptune_executions_total", &OpCounters::executions},
      {"neptune_serde_alloc_bytes_total", &OpCounters::serde_alloc_bytes},
      {"neptune_frame_copies_total", &OpCounters::frame_copies},
      {"neptune_blocked_seconds_total", &OpCounters::blocked_ns},
  };
  std::vector<OpCounters> out;
  std::map<std::string, size_t> index;
  for (const Series& s : all) {
    auto f = kFields.find(s.name);
    auto op = s.labels.find("op");
    if (f == kFields.end() || op == s.labels.end()) continue;
    auto [it, fresh] = index.emplace(op->second, out.size());
    if (fresh) {
      out.emplace_back();
      out.back().op = op->second;
    }
    const double v = s.name == "neptune_blocked_seconds_total" ? s.value * 1e9 : s.value;
    out[it->second].*(f->second) += v;
  }
  return out;
}

namespace {

/// Collects everything an operator emits (the sample pipeline's Emitter).
class CaptureEmitter final : public neptune::Emitter {
 public:
  explicit CaptureEmitter(size_t links) : links_(links) {}
  neptune::EmitStatus emit(StreamPacket&& p) override { return emit(size_t{0}, std::move(p)); }
  neptune::EmitStatus emit(size_t link, StreamPacket&& p) override {
    if (p.event_time_ns() == 0) p.set_event_time_ns(neptune::now_ns());
    if (link == 0) packets.push_back(std::move(p));
    return neptune::EmitStatus::kOk;
  }
  size_t output_link_count() const override { return links_; }
  uint32_t instance() const override { return 0; }
  uint64_t packets_emitted() const override { return packets.size(); }

  std::vector<StreamPacket> packets;

 private:
  size_t links_;
};

volatile uint64_t g_sink = 0;

template <typename F>
double ns_per_iter(F&& body, size_t iters) {
  const int64_t t0 = neptune::now_ns();
  for (size_t i = 0; i < iters; ++i) body(i);
  return static_cast<double>(neptune::now_ns() - t0) / static_cast<double>(iters);
}

}  // namespace

UnitCosts time_unit_costs(const neptune::StreamGraph& graph, double frame_bytes, size_t sample) {
  // Topological order: sources first, then every processor once all its
  // upstream operators have run (the graphs are DAGs; validate() checked).
  const auto& ops = graph.operators();
  std::vector<std::vector<StreamPacket>> emitted(ops.size());
  std::vector<bool> done(ops.size(), false);
  for (size_t round = 0; round < ops.size(); ++round) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (const auto* l : graph.inputs_of(i)) ready = ready && done[l->from_op];
      if (!ready) continue;
      CaptureEmitter out(std::max<size_t>(graph.outputs_of(i).size(), 1));
      if (ops[i].kind == neptune::OperatorKind::kSource) {
        auto src = ops[i].source_factory();
        src->open(0, 1);
        while (out.packets.size() < sample && src->next(out, sample - out.packets.size())) {
        }
        src->close();
      } else {
        auto proc = ops[i].processor_factory();
        proc->open(0, 1);
        for (const auto* l : graph.inputs_of(i)) {
          for (StreamPacket p : emitted[l->from_op]) proc->process(p, out);
        }
        proc->close(out);
      }
      emitted[i] = std::move(out.packets);
      done[i] = true;
    }
  }

  std::vector<StreamPacket> hop_packets;  // every packet some hop carries
  for (size_t i = 0; i < ops.size(); ++i) {
    if (graph.outputs_of(i).empty()) continue;
    hop_packets.insert(hop_packets.end(), emitted[i].begin(), emitted[i].end());
  }
  UnitCosts u;
  if (hop_packets.empty()) return u;
  const size_t n = hop_packets.size();
  const size_t rounds = std::max<size_t>(1, 200'000 / n);

  ByteBuffer buf;
  std::vector<size_t> offsets;
  for (const StreamPacket& p : hop_packets) {
    offsets.push_back(buf.size());
    p.serialize(buf);
  }
  offsets.push_back(buf.size());
  ByteBuffer scratch;
  u.serialize_ns_per_pkt = ns_per_iter(
      [&](size_t i) {
        if (i % n == 0) scratch.clear();
        hop_packets[i % n].serialize(scratch);
      },
      rounds * n);
  StreamPacket into;
  uint64_t alloc = 0;
  const std::span<const uint8_t> bytes = buf.contents();
  u.deserialize_ns_per_pkt = ns_per_iter(
      [&](size_t i) {
        const size_t k = i % n;
        ByteReader r(bytes.subspan(offsets[k], offsets[k + 1] - offsets[k]));
        into.deserialize(r, &alloc);
      },
      rounds * n);

  // A frame payload of the run's mean size, made of the workload's packets.
  const size_t want = static_cast<size_t>(std::max(frame_bytes, 64.0));
  std::vector<uint8_t> payload;
  payload.reserve(want);
  while (payload.size() < want) {
    const size_t take = std::min(want - payload.size(), bytes.size());
    payload.insert(payload.end(), bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(take));
  }
  const size_t frame_rounds = std::max<size_t>(4, (64u << 20) / payload.size());
  const double kb = static_cast<double>(payload.size()) / 1024.0;
  neptune::FrameHeader h;
  h.batch_count = 1;
  h.raw_size = static_cast<uint32_t>(payload.size());
  h.payload_size = static_cast<uint32_t>(payload.size());
  ByteBuffer frame;
  u.frame_encode_ns_per_kb = ns_per_iter(
                                 [&](size_t) {
                                   frame.clear();
                                   neptune::encode_frame(h, payload, frame);
                                 },
                                 frame_rounds) /
                             kb;
  uint64_t sink = 0;
  u.frame_decode_ns_per_kb = ns_per_iter(
                                 [&](size_t) {
                                   auto d = neptune::decode_frame(frame.contents());
                                   sink += d ? d->header.batch_count : 0;
                                 },
                                 frame_rounds) /
                             kb;
  u.crc32_ns_per_kb =
      ns_per_iter([&](size_t i) { sink += neptune::crc32(payload.data(), payload.size(), i); },
                  frame_rounds) /
      kb;
  u.frame_bytes = static_cast<double>(payload.size());
  g_sink = sink + alloc;  // keeps the timed calls from being optimized away
  return u;
}

namespace {

double p50_ms(std::vector<double> v) { return median(std::move(v)) / 1e6; }

}  // namespace

std::vector<LayerRow> compute_layers(const TraceInputs& in) {
  std::vector<LayerRow> rows;
  auto row = [&](std::string name, double v, std::string unit) {
    rows.push_back({std::move(name), v, std::move(unit)});
  };
  const double E = static_cast<double>(std::max<uint64_t>(in.events, 1));
  const double wall_ns = std::max(in.wall_s, 1e-9) * 1e9;
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // --- scenarios: source generation and operator self time ----------------
  double src_self = 0, op_self = 0, emit = 0;
  std::map<int, double> call_on_res, pkts_on_res;
  for (const auto& t : in.ops) {
    const double self = static_cast<double>(self_ns(t->call_ns, t->emit_ns));
    call_on_res[t->resource] += static_cast<double>(t->call_ns.load());
    if (t->source) {
      src_self += self;
    } else {
      op_self += self;
      pkts_on_res[t->resource] += static_cast<double>(t->pkts_in.load());
      row("scenarios.op_self_ns_per_pkt." + t->op, per(self, static_cast<double>(t->pkts_in)),
          "ns");
    }
    emit += static_cast<double>(t->emit_ns.load());
    if (t->pkts_out > 0)
      row("neptune.emit_ns_per_pkt." + t->op,
          per(static_cast<double>(t->emit_ns), static_cast<double>(t->pkts_out)), "ns");
  }
  row("scenarios.src_gen_ns_per_event", src_self / E, "ns");
  row("scenarios.op_self_ns_per_event", op_self / E, "ns");
  row("neptune.emit_ns_per_event", emit / E, "ns");

  // --- threads: worker dispatch, IO, context switches ----------------------
  std::map<std::string, double> worker_cpu, io_cpu;
  double ctx = 0, other_cpu = 0;
  for (const ThreadStat& t : in.threads) {
    std::string res;
    const std::string role = thread_role(t.comm, &res);
    if (role == "w") worker_cpu[res] += static_cast<double>(t.cpu_ns);
    if (role == "io") io_cpu[res] += static_cast<double>(t.cpu_ns);
    if (role.empty()) other_cpu += static_cast<double>(t.cpu_ns);
    if (!role.empty()) ctx += static_cast<double>(t.ctx_switches);
  }
  double dispatch = 0, io = 0, busy_max = 0;
  for (const auto& [res, cpu] : worker_cpu) {
    const int r = res.rfind("res", 0) == 0 ? std::atoi(res.c_str() + 3) : -1;
    const double d = cpu - call_on_res[r];
    dispatch += d;
    row("neptune.dispatch_ns_per_pkt." + res, per(d, pkts_on_res[r]), "ns");
    row("granules.worker_busy_share." + res, cpu / wall_ns, "share");
    busy_max = std::max(busy_max, cpu / wall_ns);
  }
  for (const auto& [res, cpu] : io_cpu) {
    io += cpu;
    row("net.io_cpu_ns_per_pkt." + res, cpu / E, "ns");
  }
  row("neptune.dispatch_ns_per_event", dispatch / E, "ns");
  row("net.io_cpu_ns_per_event", io / E, "ns");
  row("granules.ctx_switches_per_kpkt", ctx / E * 1000, "count");
  row("granules.worker_busy_share", busy_max, "share");
  row("granules.wakeups_per_kpkt", in.wakeups / E * 1000, "count");

  // --- runtime counters: buffers, flushes, copies ---------------------------
  double pkts_out = 0, pkts_in = 0, flushes = 0, timer = 0, bytes_out = 0, execs = 0,
         alloc = 0, copies = 0, blocked_max = 0;
  bool timer_known = true;
  for (const OpCounters& c : in.counters) {
    pkts_out += c.packets_out;
    pkts_in += c.packets_in;
    flushes += c.flushes;
    bytes_out += c.bytes_out;
    execs += c.executions;
    alloc += c.serde_alloc_bytes;
    copies += c.frame_copies;
    if (c.timer_flushes < 0) timer_known = false;
    timer += std::max(c.timer_flushes, 0.0);
    if (c.flushes > 0) row("neptune.pkts_per_flush." + c.op, c.packets_out / c.flushes, "count");
    if (c.packets_out > 0) {
      row("neptune.blocked_share." + c.op, c.blocked_ns / wall_ns, "share");
      blocked_max = std::max(blocked_max, c.blocked_ns / wall_ns);
    }
  }
  row("neptune.pkts_per_flush", per(pkts_out, flushes), "count");
  if (timer_known) row("neptune.timer_flush_share", per(timer, flushes), "share");
  row("neptune.blocked_share", blocked_max, "share");
  row("neptune.serialize_ns_per_pkt", in.unit.serialize_ns_per_pkt, "ns");
  row("neptune.deserialize_ns_per_pkt", in.unit.deserialize_ns_per_pkt, "ns");
  row("neptune.serde_alloc_bytes_per_pkt", per(alloc, pkts_in), "B");
  row("neptune.frame_copies", copies, "count");
  row("granules.executions_per_kpkt", execs / E * 1000, "count");

  // --- net + common: frames and CRC on the workload's frame size ------------
  const double frame_kb = in.unit.frame_bytes / 1024.0;
  row("net.frame_encode_ns_per_kb", in.unit.frame_encode_ns_per_kb, "ns");
  row("net.frame_decode_ns_per_kb", in.unit.frame_decode_ns_per_kb, "ns");
  row("common.crc32_ns_per_kb", in.unit.crc32_ns_per_kb, "ns");
  row("net.frames_per_kpkt", per(flushes, pkts_out) * 1000, "count");
  row("net.frame_ns_per_event",
      flushes * frame_kb * (in.unit.frame_encode_ns_per_kb + in.unit.frame_decode_ns_per_kb) / E,
      "ns");
  if (!in.tcp.empty()) {
    auto tcp = [&](const char* k) {
      auto it = in.tcp.find(k);
      return it == in.tcp.end() ? 0.0 : it->second;
    };
    row("net.tcp_iov_per_sendmsg",
        per(tcp("neptune_tcp_tx_frames_total"), tcp("neptune_tcp_sendmsg_calls_total")), "count");
    row("net.tcp_rx_splice_bytes_per_mb",
        per(tcp("neptune_tcp_rx_splice_bytes_total"), bytes_out / 1e6), "B");
    row("net.tcp_tx_copies", tcp("neptune_tcp_tx_copies_total"), "count");
  }

  // --- sampled batch spans: where a hop's time goes -------------------------
  std::map<std::string, std::vector<double>[4]> by_link;
  std::vector<double> all[4];
  for (const auto& s : in.spans) {
    auto name = in.link_names.count(s.link_id) ? in.link_names.at(s.link_id)
                                               : std::to_string(s.link_id);
    const double v[4] = {double(s.buffer_wait_ns()), double(s.wire_ns()),
                         double(s.queue_wait_ns()), double(s.execute_ns())};
    for (int k = 0; k < 4; ++k) {
      by_link[name][k].push_back(v[k]);
      all[k].push_back(v[k]);
    }
  }
  static const char* kPhase[4] = {"hop_buffer_wait_ms", "hop_wire_ms", "hop_queue_wait_ms",
                                  "hop_execute_ms"};
  for (auto& [link, v] : by_link) {
    for (int k = 0; k < 4; ++k)
      row(std::string("neptune.") + kPhase[k] + "." + link, p50_ms(v[k]), "ms");
  }
  for (int k = 0; k < 4; ++k) row(std::string("neptune.") + kPhase[k], p50_ms(all[k]), "ms");
  row("neptune.hop_spans", static_cast<double>(in.spans.size()), "count");

  // --- reconciliation --------------------------------------------------------
  // Worker CPU = source self + operator self + emit + dispatch by
  // construction; IO threads and the supervisor are layers of their own.
  // Whatever else the process spent (its other threads, CPU that /proc
  // sampling missed) is unattributed.
  const double layers[] = {src_self, op_self, emit, dispatch, io,
                           static_cast<double>(in.supervisor_cpu_ns)};
  row("trace.other_threads_cpu_ns_per_event", other_cpu / E, "ns");
  const double unattributed = unattributed_share(static_cast<double>(in.process_cpu_ns), layers);
  row("trace.unattributed_share", unattributed, "share");
  row("trace.unattributed_abs_share", std::fabs(unattributed), "share");
  return rows;
}

}  // namespace perfbench
