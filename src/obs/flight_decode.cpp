#include "obs/flight_decode.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace neptune::obs {

namespace {

constexpr char kRawMagic[8] = {'N', 'E', 'P', 'F', 'R', '0', '1', '\n'};
constexpr uint64_t kRingMarker = 0x474E4952;  // "RING"
constexpr size_t kActorNameBytes = FlightRecorder::kActorNameBytes;

const std::string kUnknownActor = "?";

// Operator actors are "task[instance]"; edge actors are "edge ...". The
// task name is what topology links reference.
std::string task_of_actor(const std::string& actor) {
  size_t bracket = actor.find('[');
  if (bracket == std::string::npos) return actor;
  return actor.substr(0, bracket);
}

bool is_edge_actor(const std::string& actor) { return actor.rfind("edge ", 0) == 0; }

struct Interval {
  int64_t begin_ns;
  int64_t end_ns;
  uint32_t actor;
};

// Clip `iv` to [begin, end) and return the overlap in seconds.
double overlap_s(const Interval& iv, int64_t begin, int64_t end) {
  int64_t lo = std::max(iv.begin_ns, begin);
  int64_t hi = std::min(iv.end_ns, end);
  return hi > lo ? static_cast<double>(hi - lo) * 1e-9 : 0.0;
}

}  // namespace

const std::string& Journal::actor_name(uint32_t id) const {
  if (id >= actors.size()) return kUnknownActor;
  return actors[id];
}

Journal Journal::from_bundle(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw std::runtime_error("flight_decode: cannot open " + path);
  Journal journal;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    try {
      value = JsonValue::parse(line);
    } catch (const JsonError& e) {
      throw std::runtime_error("flight_decode: " + path + ":" + std::to_string(line_no) +
                               ": " + e.what());
    }
    std::string kind = value.string_or("kind", "");
    if (kind == "header") {
      journal.header = value;
    } else if (kind == "topology") {
      journal.topologies.push_back(value.at("topology"));
    } else if (kind == "telemetry") {
      journal.telemetry = value.at("snapshot");
    } else if (kind == "span") {
      journal.spans.push_back(value);
    } else if (kind == "actor") {
      auto id = static_cast<size_t>(value.at("id").as_int());
      if (journal.actors.size() <= id) journal.actors.resize(id + 1, kUnknownActor);
      journal.actors[id] = value.at("name").as_string();
    } else if (kind == "event") {
      JournalEvent ev;
      ev.ts_ns = value.at("ts_ns").as_int();
      ev.ring = static_cast<uint32_t>(value.at("ring").as_int());
      ev.tid = static_cast<uint32_t>(value.at("tid").as_int());
      ev.actor = static_cast<uint32_t>(value.at("actor").as_int());
      ev.type = flight_event_from_name(value.at("type").as_string());
      ev.a = static_cast<uint64_t>(value.at("a").as_int());
      ev.b = static_cast<uint64_t>(value.at("b").as_int());
      journal.events.push_back(ev);
    }
  }
  if (!journal.header.is_object()) {
    throw std::runtime_error("flight_decode: " + path + ": no header line");
  }
  std::stable_sort(journal.events.begin(), journal.events.end(),
                   [](const JournalEvent& a, const JournalEvent& b) { return a.ts_ns < b.ts_ns; });
  return journal;
}

Journal Journal::from_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("flight_decode: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string data = buf.str();

  size_t off = 0;
  auto remaining = [&] { return data.size() - off; };
  auto read_u64 = [&](uint64_t& out) {
    if (remaining() < sizeof out) return false;
    std::memcpy(&out, data.data() + off, sizeof out);
    off += sizeof out;
    return true;
  };

  if (data.size() < sizeof kRawMagic ||
      std::memcmp(data.data(), kRawMagic, sizeof kRawMagic) != 0) {
    throw std::runtime_error("flight_decode: " + path + ": bad magic");
  }
  off = sizeof kRawMagic;

  Journal journal;
  uint64_t version = 0, signal = 0, steady_ns = 0, wall_ns = 0, actor_count = 0;
  if (!read_u64(version) || version != 1) {
    throw std::runtime_error("flight_decode: " + path + ": unsupported version");
  }
  read_u64(signal);
  read_u64(steady_ns);
  read_u64(wall_ns);
  journal.signal = static_cast<int>(signal);
  {
    JsonObject header;
    header["kind"] = JsonValue(std::string("header"));
    header["bundle"] = JsonValue(std::string("neptune-crash-dump"));
    header["version"] = JsonValue(static_cast<int64_t>(version));
    header["trigger"] = JsonValue(std::string(signal != 0 ? "signal" : "explicit_dump"));
    header["signal"] = JsonValue(static_cast<int64_t>(signal));
    header["steady_ns"] = JsonValue(static_cast<int64_t>(steady_ns));
    header["wall_unix_ns"] = JsonValue(static_cast<int64_t>(wall_ns));
    journal.header = JsonValue(std::move(header));
  }

  if (!read_u64(actor_count)) return journal;
  for (uint64_t i = 0; i < actor_count; ++i) {
    if (remaining() < kActorNameBytes) return journal;  // truncated tail
    char name[kActorNameBytes];
    std::memcpy(name, data.data() + off, kActorNameBytes);
    name[kActorNameBytes - 1] = '\0';
    journal.actors.emplace_back(name);
    off += kActorNameBytes;
  }

  uint64_t ring_count = 0;
  if (!read_u64(ring_count)) return journal;
  for (uint64_t r = 0; r < ring_count; ++r) {
    uint64_t marker = 0, index = 0, tid = 0, capacity = 0, head = 0;
    if (!read_u64(marker) || marker != kRingMarker) break;
    if (!read_u64(index) || !read_u64(tid) || !read_u64(capacity) || !read_u64(head)) break;
    if (capacity == 0 || capacity > (1u << 24) || remaining() < capacity * 4 * sizeof(uint64_t)) {
      break;  // truncated or implausible — keep what we have
    }
    uint64_t n = std::min(head, capacity);
    for (uint64_t seq = head - n; seq < head; ++seq) {
      const char* slot = data.data() + off + (seq & (capacity - 1)) * 4 * sizeof(uint64_t);
      uint64_t words[4];
      std::memcpy(words, slot, sizeof words);
      JournalEvent ev;
      ev.ts_ns = static_cast<int64_t>(words[0]);
      ev.actor = static_cast<uint32_t>(words[1] & 0xFFFFFFFFu);
      ev.type = static_cast<FlightEventType>((words[1] >> 32) & 0xFF);
      ev.a = words[2];
      ev.b = words[3];
      ev.ring = static_cast<uint32_t>(index);
      ev.tid = static_cast<uint32_t>(tid);
      journal.events.push_back(ev);
    }
    off += capacity * 4 * sizeof(uint64_t);
  }
  std::stable_sort(journal.events.begin(), journal.events.end(),
                   [](const JournalEvent& a, const JournalEvent& b) { return a.ts_ns < b.ts_ns; });
  return journal;
}

Journal Journal::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("flight_decode: cannot open " + path);
  char magic[8] = {};
  in.read(magic, sizeof magic);
  in.close();
  if (std::memcmp(magic, kRawMagic, sizeof kRawMagic) == 0) return from_raw(path);
  return from_bundle(path);
}

namespace {

// Reconstruct execute intervals (dispatch begin→end, paired per actor+ring
// since a dispatch never migrates threads mid-flight) and blocked intervals
// (derived from kUnblock's blocked-ns payload, so the block/unblock pair
// may land on different threads). Open intervals are closed at `end_ns`.
void reconstruct_intervals(const Journal& journal, std::vector<Interval>& execute,
                           std::vector<Interval>& blocked) {
  std::map<std::pair<uint32_t, uint32_t>, int64_t> open_dispatch;  // (actor, ring) -> begin
  std::map<uint32_t, int64_t> open_block;                          // actor -> begin
  int64_t end_ns = journal.events.empty() ? 0 : journal.events.back().ts_ns;
  for (const JournalEvent& ev : journal.events) {
    switch (ev.type) {
      case FlightEventType::kDispatchBegin:
        open_dispatch[{ev.actor, ev.ring}] = ev.ts_ns;
        break;
      case FlightEventType::kDispatchEnd: {
        auto it = open_dispatch.find({ev.actor, ev.ring});
        if (it != open_dispatch.end()) {
          execute.push_back({it->second, ev.ts_ns, ev.actor});
          open_dispatch.erase(it);
        }
        break;
      }
      case FlightEventType::kBlock:
        open_block[ev.actor] = ev.ts_ns;
        break;
      case FlightEventType::kUnblock: {
        // a = blocked ns measured by the producer; trust it over pairing so
        // a block event that rotated out of the ring still yields the
        // correct interval.
        int64_t begin = ev.ts_ns - static_cast<int64_t>(ev.a);
        blocked.push_back({begin, ev.ts_ns, ev.actor});
        open_block.erase(ev.actor);
        break;
      }
      default:
        break;
    }
  }
  for (const auto& [key, begin] : open_dispatch) execute.push_back({begin, end_ns, key.first});
  for (const auto& [actor, begin] : open_block) blocked.push_back({begin, end_ns, actor});
}

}  // namespace

std::vector<SliceAttribution> attribute_latency(const Journal& journal, int64_t slice_ns) {
  std::vector<SliceAttribution> slices;
  if (journal.events.empty() || slice_ns <= 0) return slices;
  int64_t t0 = journal.events.front().ts_ns;
  int64_t t1 = journal.events.back().ts_ns;
  if (t1 <= t0) t1 = t0 + 1;

  std::vector<Interval> execute, blocked;
  reconstruct_intervals(journal, execute, blocked);

  size_t n_slices = static_cast<size_t>((t1 - t0 + slice_ns - 1) / slice_ns);
  slices.resize(n_slices);
  for (size_t i = 0; i < n_slices; ++i) {
    slices[i].begin_ns = t0 + static_cast<int64_t>(i) * slice_ns;
    slices[i].end_ns = slices[i].begin_ns + slice_ns;
  }
  auto slice_range = [&](int64_t begin, int64_t end, auto&& fn) {
    if (end <= begin) return;
    size_t first = static_cast<size_t>(std::max<int64_t>(0, (begin - t0) / slice_ns));
    size_t last = static_cast<size_t>(std::max<int64_t>(0, (end - 1 - t0) / slice_ns));
    for (size_t i = first; i <= last && i < n_slices; ++i) fn(slices[i]);
  };

  for (const Interval& iv : execute) {
    const std::string& name = journal.actor_name(iv.actor);
    slice_range(iv.begin_ns, iv.end_ns, [&](SliceAttribution& s) {
      s.actors[name].execute_s += overlap_s(iv, s.begin_ns, s.end_ns);
    });
  }
  for (const Interval& iv : blocked) {
    const std::string& name = journal.actor_name(iv.actor);
    slice_range(iv.begin_ns, iv.end_ns, [&](SliceAttribution& s) {
      s.actors[name].blocked_s += overlap_s(iv, s.begin_ns, s.end_ns);
    });
  }
  for (const JournalEvent& ev : journal.events) {
    const std::string& name = journal.actor_name(ev.actor);
    slice_range(ev.ts_ns, ev.ts_ns + 1, [&](SliceAttribution& s) {
      ActorSliceStats& stats = s.actors[name];
      if (ev.type == FlightEventType::kDispatchBegin) ++stats.dispatches;
      if (ev.type == FlightEventType::kFlush) ++stats.flushes;
      if (ev.type == FlightEventType::kShed) ++stats.sheds;
    });
  }

  for (SliceAttribution& s : slices) {
    double slice_s = static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    double best = 0;
    for (const auto& [name, stats] : s.actors) {
      if (is_edge_actor(name)) continue;
      if (stats.execute_s > best) {
        best = stats.execute_s;
        s.bottleneck = name;
        s.bottleneck_busy_fraction = stats.execute_s / slice_s;
      }
    }
    if (s.bottleneck_busy_fraction < 0.01) {
      s.bottleneck = "idle";
      s.bottleneck_busy_fraction = 0;
    }
  }
  return slices;
}

std::vector<EdgeLatency> edge_latency(const Journal& journal) {
  // link id -> destination task name, from any topology descriptor present.
  // Chained links are direct calls with no buffer, flush or queue: they are
  // not edges, and their destination dispatches under the chain head.
  std::map<uint64_t, std::string> link_dst;
  std::set<uint64_t> chained;
  for (const JsonValue& topo : journal.topologies) {
    if (!topo.is_object() || !topo.contains("links")) continue;
    for (const JsonValue& link : topo.at("links").as_array()) {
      if (!link.is_object()) continue;
      uint64_t id = static_cast<uint64_t>(link.number_or("id", 0));
      if (link.contains("chained") && link.at("chained").as_bool()) {
        chained.insert(id);
        continue;
      }
      link_dst[id] = link.string_or("to", "");
    }
  }

  std::map<uint64_t, EdgeLatency> edges;
  // Pending flush timestamps per link, joined to the next dispatch of the
  // destination operator. Bounded so a never-dispatching dst can't grow it.
  std::map<uint64_t, std::deque<int64_t>> pending_flush;
  // task name -> links that feed it
  std::map<std::string, std::vector<uint64_t>> links_into;
  for (const auto& [link, dst] : link_dst) {
    if (!dst.empty()) links_into[dst].push_back(link);
  }

  for (const JournalEvent& ev : journal.events) {
    switch (ev.type) {
      case FlightEventType::kFlush: {
        EdgeLatency& e = edges[ev.b];
        ++e.flushes;
        auto& q = pending_flush[ev.b];
        q.push_back(ev.ts_ns);
        if (q.size() > 1024) q.pop_front();
        break;
      }
      case FlightEventType::kShed:
        ++edges[ev.b].sheds;
        break;
      case FlightEventType::kBlock:
        ++edges[ev.b].blocks;
        break;
      case FlightEventType::kUnblock:
        edges[ev.b].blocked_s += static_cast<double>(ev.a) * 1e-9;
        break;
      case FlightEventType::kDispatchBegin: {
        const std::string task = task_of_actor(journal.actor_name(ev.actor));
        auto it = links_into.find(task);
        if (it == links_into.end()) break;
        for (uint64_t link : it->second) {
          auto& q = pending_flush[link];
          while (!q.empty() && q.front() <= ev.ts_ns) {
            double wait_s = static_cast<double>(ev.ts_ns - q.front()) * 1e-9;
            EdgeLatency& e = edges[link];
            ++e.queue_wait_samples;
            e.queue_wait_mean_s += wait_s;  // sum for now, divided below
            e.queue_wait_max_s = std::max(e.queue_wait_max_s, wait_s);
            q.pop_front();
          }
        }
        break;
      }
      default:
        break;
    }
  }

  std::vector<EdgeLatency> out;
  out.reserve(edges.size());
  for (auto& [link, e] : edges) {
    if (chained.count(link)) continue;
    e.link = link;
    auto it = link_dst.find(link);
    if (it != link_dst.end()) e.dst_op = it->second;
    if (e.queue_wait_samples > 0) {
      e.queue_wait_mean_s /= static_cast<double>(e.queue_wait_samples);
    }
    out.push_back(e);
  }
  return out;
}

std::string overall_bottleneck(const Journal& journal, int64_t slice_ns) {
  std::map<std::string, double> execute_totals;
  for (const SliceAttribution& s : attribute_latency(journal, slice_ns)) {
    for (const auto& [name, stats] : s.actors) {
      if (!is_edge_actor(name)) execute_totals[name] += stats.execute_s;
    }
  }
  std::string best;
  double best_s = 0;
  for (const auto& [name, total] : execute_totals) {
    if (total > best_s) {
      best_s = total;
      best = name;
    }
  }
  return best;
}

}  // namespace neptune::obs
