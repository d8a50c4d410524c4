// Stream processing graph description (paper §III-A7): stream sources and
// processors for each stage, parallelism levels, links connecting stream
// operators, and a partitioning scheme per link. Built by direct API calls
// here, or from a JSON descriptor (json_topology.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/selective.hpp"
#include "neptune/operators.hpp"
#include "neptune/partitioning.hpp"
#include "neptune/stream_buffer.hpp"

namespace neptune {

class GraphError : public std::runtime_error {
 public:
  explicit GraphError(const std::string& what) : std::runtime_error(what) {}
};

/// Job-wide defaults; individual links can override buffering and
/// compression ("should be enabled and configured for each stream
/// individually", §III-B5).
struct GraphConfig {
  StreamBufferConfig buffer;
  /// In-flight byte budget per edge channel and its writable watermark.
  ChannelConfig channel;
  /// Packets a source is asked for per scheduled execution.
  size_t source_batch_budget = 512;
  /// Frames a processor consumes per scheduled execution before yielding.
  size_t max_batches_per_execution = 8;
};

/// How long a source that had nothing ready is parked before its next
/// next() call: next() returned true but emitted nothing, and its outputs
/// were not backpressured. 2% of the default 5 ms flush bound, so a park
/// adds little to a packet's latency while an idle source stops spinning
/// its worker (paper §III-B2: a task runs per batch, not per poll). The
/// runtime and the DST model both park for exactly this long.
inline constexpr int64_t kIdleSourceParkNs = 100'000;

enum class OperatorKind { kSource, kProcessor };

struct OperatorDecl {
  std::string id;
  OperatorKind kind;
  SourceFactory source_factory;        // kind == kSource
  ProcessorFactory processor_factory;  // kind == kProcessor
  uint32_t parallelism = 1;
  /// Resource placement hint; -1 lets the runtime round-robin instances.
  int resource = -1;
};

struct LinkDecl {
  uint32_t link_id = 0;  ///< globally unique within the graph
  size_t from_op = 0;    ///< index into operators()
  size_t to_op = 0;
  size_t output_index = 0;  ///< position among from_op's output links
  std::shared_ptr<PartitioningScheme> partitioning;
  CompressionPolicy compression;
  std::optional<StreamBufferConfig> buffer_override;
  /// Delivery priority; best-effort links may declare a shed policy.
  QosClass qos = QosClass::kCritical;
  ShedConfig shed;
};

class StreamGraph {
 public:
  explicit StreamGraph(std::string name, GraphConfig config = {});

  StreamGraph& add_source(const std::string& id, SourceFactory factory, uint32_t parallelism = 1,
                          int resource = -1);
  StreamGraph& add_processor(const std::string& id, ProcessorFactory factory,
                             uint32_t parallelism = 1, int resource = -1);

  /// Connect `from` -> `to`. Returns the output-link index on `from` (for
  /// Emitter::emit(link, ...)). Default partitioning is shuffle. A non-none
  /// shed policy requires `qos == kBestEffort` (throws GraphError: the
  /// lossless contract of critical links is load-bearing for exactly-once).
  size_t connect(const std::string& from, const std::string& to,
                 std::shared_ptr<PartitioningScheme> partitioning = nullptr,
                 CompressionPolicy compression = {},
                 std::optional<StreamBufferConfig> buffer_override = std::nullopt,
                 QosClass qos = QosClass::kCritical, ShedConfig shed = {});

  /// Structural checks: ids resolve, sources have no inputs, every operator
  /// is connected, and the graph is acyclic. Throws GraphError.
  void validate() const;

  const std::string& name() const { return name_; }
  const GraphConfig& config() const { return config_; }
  GraphConfig& config() { return config_; }
  const std::vector<OperatorDecl>& operators() const { return operators_; }
  const std::vector<LinkDecl>& links() const { return links_; }

  size_t operator_index(const std::string& id) const;
  /// Output links of an operator, ordered by output_index.
  std::vector<const LinkDecl*> outputs_of(size_t op) const;
  std::vector<const LinkDecl*> inputs_of(size_t op) const;

  /// Graphviz DOT rendering of the graph (operators as nodes annotated
  /// with kind/parallelism; links labelled with partitioning/compression).
  std::string to_dot() const;

 private:
  std::string name_;
  GraphConfig config_;
  std::vector<OperatorDecl> operators_;
  std::vector<LinkDecl> links_;
};

}  // namespace neptune
