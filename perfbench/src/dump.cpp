#include "dump.hpp"

#include "common/json.hpp"

namespace perfbench {

using neptune::JsonArray;
using neptune::JsonObject;
using neptune::JsonValue;

namespace {

JsonValue num(int64_t v) { return JsonValue(static_cast<double>(v)); }
JsonValue num(uint64_t v) { return JsonValue(static_cast<double>(v)); }

}  // namespace

std::string encode_dump(const WorkerDump& d) {
  JsonObject o;
  JsonArray latency;
  for (const auto& [index, n] : d.latency.buckets()) {
    latency.emplace_back(JsonArray{JsonValue(static_cast<int64_t>(index)), num(n)});
  }
  o["latency"] = JsonValue(std::move(latency));
  o["first_emit_ns"] = num(d.first_emit_ns);
  o["last_arrival_ns"] = num(d.last_arrival_ns);
  o["peak_rss_mb"] = JsonValue(d.peak_rss_mb);
  JsonArray ops;
  for (const auto& t : d.ops) {
    JsonObject x;
    x["op"] = JsonValue(t->op);
    x["source"] = JsonValue(t->source);
    x["resource"] = JsonValue(t->resource);
    x["call_ns"] = num(t->call_ns.load());
    x["emit_ns"] = num(t->emit_ns.load());
    x["pkts_in"] = num(t->pkts_in.load());
    x["pkts_out"] = num(t->pkts_out.load());
    ops.emplace_back(std::move(x));
  }
  o["ops"] = JsonValue(std::move(ops));
  JsonArray threads;
  for (const ThreadStat& t : d.threads) {
    JsonObject x;
    x["tid"] = JsonValue(static_cast<int64_t>(t.tid));
    x["comm"] = JsonValue(t.comm);
    x["cpu_ns"] = num(t.cpu_ns);
    x["ctx"] = num(t.ctx_switches);
    threads.emplace_back(std::move(x));
  }
  o["threads"] = JsonValue(std::move(threads));
  JsonArray series;
  for (const Series& s : d.series) {
    JsonObject x, labels;
    for (const auto& [k, v] : s.labels) labels[k] = JsonValue(v);
    x["name"] = JsonValue(s.name);
    x["labels"] = JsonValue(std::move(labels));
    x["value"] = JsonValue(s.value);
    series.emplace_back(std::move(x));
  }
  o["series"] = JsonValue(std::move(series));
  JsonArray spans;
  for (const auto& s : d.spans) {
    JsonObject x;
    x["link"] = JsonValue(static_cast<int64_t>(s.link_id));
    x["batch_start"] = num(s.batch_start_ns);
    x["flush"] = num(s.flush_ns);
    x["recv"] = num(s.recv_ns);
    x["exec_start"] = num(s.exec_start_ns);
    x["exec_end"] = num(s.exec_end_ns);
    spans.emplace_back(std::move(x));
  }
  o["spans"] = JsonValue(std::move(spans));
  return JsonValue(std::move(o)).dump();
}

WorkerDump decode_dump(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  auto i64 = [](const JsonValue& v, const char* k) {
    return static_cast<int64_t>(v.at(k).as_number());
  };
  WorkerDump d;
  for (const JsonValue& b : doc.at("latency").as_array()) {
    d.latency.add_bucket(static_cast<uint32_t>(b.as_array().at(0).as_number()),
                         static_cast<uint64_t>(b.as_array().at(1).as_number()));
  }
  d.first_emit_ns = i64(doc, "first_emit_ns");
  d.last_arrival_ns = i64(doc, "last_arrival_ns");
  d.peak_rss_mb = doc.at("peak_rss_mb").as_number();
  for (const JsonValue& x : doc.at("ops").as_array()) {
    auto t = std::make_shared<OpTimes>();
    t->op = x.at("op").as_string();
    t->source = x.at("source").as_bool();
    t->resource = static_cast<int>(i64(x, "resource"));
    t->call_ns = i64(x, "call_ns");
    t->emit_ns = i64(x, "emit_ns");
    t->pkts_in = static_cast<uint64_t>(i64(x, "pkts_in"));
    t->pkts_out = static_cast<uint64_t>(i64(x, "pkts_out"));
    d.ops.push_back(std::move(t));
  }
  for (const JsonValue& x : doc.at("threads").as_array()) {
    ThreadStat t;
    t.tid = static_cast<pid_t>(i64(x, "tid"));
    t.comm = x.at("comm").as_string();
    t.cpu_ns = i64(x, "cpu_ns");
    t.ctx_switches = static_cast<uint64_t>(i64(x, "ctx"));
    d.threads.push_back(std::move(t));
  }
  for (const JsonValue& x : doc.at("series").as_array()) {
    Series s;
    s.name = x.at("name").as_string();
    for (const auto& [k, v] : x.at("labels").as_object()) s.labels[k] = v.as_string();
    s.value = x.at("value").as_number();
    d.series.push_back(std::move(s));
  }
  for (const JsonValue& x : doc.at("spans").as_array()) {
    neptune::obs::TraceSpan s;
    s.link_id = static_cast<uint32_t>(i64(x, "link"));
    s.batch_start_ns = i64(x, "batch_start");
    s.flush_ns = i64(x, "flush");
    s.recv_ns = i64(x, "recv");
    s.exec_start_ns = i64(x, "exec_start");
    s.exec_end_ns = i64(x, "exec_end");
    d.spans.push_back(std::move(s));
  }
  return d;
}

}  // namespace perfbench
