// Benchmark-owned spans around calls into the library's layers.
//
// A span records its layer, start, end, parent span and request id.
// Each thread appends to its own preallocated buffer (no locks, no
// allocation while tracing); buffers are analysed and written out when
// the run ends.

#ifndef UCRBENCH_SPAN_TRACE_H_
#define UCRBENCH_SPAN_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ucrbench.h"

namespace ucrbench {

enum Layer : uint16_t {
  // Read path. kCheck is a request's root.
  kCheck,
  kPin,        ///< snapshot: Pin ... ReadPin release (self = pin + release,
               ///< and TryStore after a miss).
  kLookup,     ///< snapshot: EpochResolutionTable::Lookup.
  kCompose,    ///< reachability: ComposeIndexedSinkBag.
  kExtract,    ///< ancestor_subgraph: AncestorSubgraph construction.
  kPropagate,  ///< flat_propagate: SetLabels + PropagateSink.
  kDecide,     ///< resolve: ResolveEntries.
  kProbe,      ///< Off-path root: extract + propagate timed beside the index.
  // Write path. kCommit is a request's root.
  kCommit,
  kWalAppend,    ///< wal: WalWriter::BeginBatch.
  kApply,        ///< system: ApplyMutations, snapshot reads off.
  kRebuild,      ///< reachability: first reachability_index() after apply.
  kRetainIndex,  ///< Benchmark glue: owning copy of the index (off-path).
  kBuild,        ///< snapshot: BuildSnapshot with carry-over.
  kPublish,      ///< snapshot: SnapshotManager::Publish.
  kWalCommit,    ///< wal: WalWriter::Commit incl. fsync.
  // Start-up path. kOpen is a request's root.
  kOpen,
  kLoad,        ///< binary_snapshot: LoadBinarySnapshot.
  kReachBuild,  ///< reachability: first full index build after load.
  kReplay,      ///< persistent_system: ReadWal + replay of the tail.
  kWalOpen,     ///< wal: WalWriter::Open.
  kLayerCount
};

const char* LayerName(Layer layer);

struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t request;
  uint32_t parent;
  uint16_t layer;
  uint16_t thread;
};

class SpanBuffer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  SpanBuffer(uint16_t thread, size_t capacity);

  /// Opens a span; returns kNone (and records nothing) when full.
  uint32_t Begin(Layer layer, uint64_t request, uint32_t parent) {
    if (size_ == capacity_) {
      ++dropped_;
      return kNone;
    }
    spans_[size_] = SpanRecord{NowNs(), 0, request, parent, layer, thread_};
    return static_cast<uint32_t>(size_++);
  }
  void End(uint32_t id) {
    if (id != kNone) spans_[id].end_ns = NowNs();
  }

  /// Brings the next `count` records into cache and drains the store
  /// buffer, so the record stores of the request about to be traced do
  /// not miss inside it. (A pinned read's atomic read-modify-write
  /// waits for every earlier store to complete; a cold record store
  /// would otherwise be billed to the pin.)
  void Prepare(size_t count);

  std::span<const SpanRecord> spans() const { return {spans_.get(), size_}; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::unique_ptr<SpanRecord[]> spans_;
  size_t size_ = 0;
  size_t capacity_;
  uint16_t thread_;
  uint64_t dropped_ = 0;
};

/// RAII span; a null buffer makes it a no-op (untraced request).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, Layer layer, uint64_t request,
             uint32_t parent)
      : buffer_(buffer),
        id_(buffer != nullptr ? buffer->Begin(layer, request, parent)
                              : SpanBuffer::kNone) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  uint32_t id_;
};

/// The cost tracing adds, measured on empty spans: `inner_ns` is what
/// an empty span measures itself (its two clock reads), `outer_ns` what
/// an empty child adds to its parent's duration. Both are subtracted
/// from span times, so self times estimate the untraced work.
struct SpanCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;
};
SpanCost CalibrateSpanCost();

/// Central value of span samples: the mean of the middle 10 %.
double SpanMedian(std::vector<double> values);

/// Span times grouped by the layer of the request root they belong to
/// (kCheck, kProbe, kCommit, kOpen), so a layer that runs both at
/// start-up and per commit is summarised per path. All times have the
/// calibrated span cost removed (floored at 0): a span's own inner cost,
/// and each child's outer cost from its parent's self time.
struct TraceAnalysis {
  using PerLayer = std::array<std::vector<double>, kLayerCount>;
  /// [root layer][layer]: span duration minus its children's.
  std::array<PerLayer, kLayerCount> self_ns;
  /// [root layer][layer]: whole span duration.
  std::array<PerLayer, kLayerCount> total_ns;
  /// [root layer]: per request, the summed self time of its blocking
  /// (on-path, non-root) spans, and its raw root span duration.
  PerLayer blocking_ns;
  PerLayer root_ns;
  uint64_t spans = 0;
  uint64_t dropped = 0;
};

TraceAnalysis Analyze(const std::vector<const SpanBuffer*>& buffers,
                      const SpanCost& cost);

/// Writes every span as one tab-separated line to `path`.
bool WriteSpans(const std::vector<const SpanBuffer*>& buffers,
                const std::string& path);

}  // namespace ucrbench

#endif  // UCRBENCH_SPAN_TRACE_H_
