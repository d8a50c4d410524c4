// Probes the benchmark puts around the program from outside: operator and
// source decorators that time the public operator API, and the per-packet
// sink tap that owns the benchmark's latency definition. They wrap the
// factories of an already-built StreamGraph (wrap_graph), so the runtime and
// the operators themselves are untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hpp"
#include "neptune/graph.hpp"
#include "neptune/state.hpp"

namespace perfbench {

/// Time and packet counts of one operator instance. Each instance runs on
/// one worker thread at a time, so the fields have a single writer; they are
/// read once the job has drained.
struct OpTimes {
  std::string op;
  bool source = false;
  int resource = -1;
  std::atomic<int64_t> call_ns{0};  ///< inside next()/process()/on_batch()/close()
  std::atomic<int64_t> emit_ns{0};  ///< inside Emitter::emit called from those
  std::atomic<uint64_t> pkts_in{0};
  std::atomic<uint64_t> pkts_out{0};

  static void add(std::atomic<int64_t>& a, int64_t d) {
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  static void add(std::atomic<uint64_t>& a, uint64_t d) {
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
};

/// Owns the OpTimes of every decorated instance (stable addresses).
class ProbeRegistry {
 public:
  OpTimes& create(const std::string& op, bool source, int resource);
  /// Per-operator sums over instances, in creation order.
  std::vector<std::shared_ptr<OpTimes>> by_operator() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<OpTimes>> all_;
};

/// What the sink tap saw. One tap serves the one sink instance of a job
/// (wrap_graph refuses graphs with more), so it has a single writer.
class TapStats {
 public:
  /// `latency_limit_ns` > 0: arrivals later than this count as late.
  /// `check_seq`: field 0 of every packet is an i64 sequence number that
  /// must arrive as 0, 1, 2, ... (relay workloads).
  TapStats(int64_t latency_limit_ns, bool check_seq)
      : latency_limit_ns_(latency_limit_ns), check_seq_(check_seq) {}

  void on_packet(int64_t now, int64_t event_time_ns, int64_t seq);
  bool check_seq() const { return check_seq_; }

  const Histogram& latency() const { return latency_; }
  uint64_t in_order() const { return in_order_.load(std::memory_order_relaxed); }
  /// Every packet that reached the sink, in order or not.
  uint64_t arrivals() const { return arrivals_.load(std::memory_order_relaxed); }
  uint64_t late() const { return late_.load(std::memory_order_relaxed); }
  /// True when the relay of `events` packets delivered 0 .. events-1, each
  /// once and in order (check_seq only).
  bool delivered_exactly(uint64_t events) const {
    return in_order() == events && arrivals() == events;
  }
  /// Failed events of that relay: packets missing from the in-order stream,
  /// extra arrivals (duplicates, reordered packets) and late ones, at most
  /// `events`. A reordered packet counts as missing and as extra.
  uint64_t failed(uint64_t events) const;
  int64_t last_arrival_ns() const { return last_arrival_ns_.load(std::memory_order_relaxed); }
  /// Time of the first call into any source (0 until then).
  int64_t first_emit_ns() const { return first_emit_ns_.load(std::memory_order_relaxed); }
  void mark_first_emit(int64_t now) {
    int64_t zero = 0;
    first_emit_ns_.compare_exchange_strong(zero, now, std::memory_order_relaxed);
  }

 private:
  const int64_t latency_limit_ns_;
  const bool check_seq_;
  Histogram latency_;
  std::atomic<uint64_t> in_order_{0};  ///< seq == expected (check_seq only)
  std::atomic<uint64_t> arrivals_{0};
  std::atomic<uint64_t> late_{0};
  std::atomic<int64_t> next_seq_{0};
  std::atomic<int64_t> last_arrival_ns_{0};
  std::atomic<int64_t> first_emit_ns_{0};
};

/// Which probes wrap_graph installs.
struct WrapOptions {
  ProbeRegistry* probes = nullptr;  ///< non-null: time every operator (traced runs)
  /// Non-null: tap every sink (operators with no outputs) and mark the
  /// first source call.
  TapStats* tap = nullptr;
};

/// A copy of `graph` whose factories return decorated operators. Links are
/// re-declared in their original order, so link ids and output indices are
/// unchanged.
neptune::StreamGraph wrap_graph(const neptune::StreamGraph& graph, const WrapOptions& opts);

}  // namespace perfbench
