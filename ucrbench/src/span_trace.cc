#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace ucrbench {

const char* LayerName(Layer layer) {
  static const char* const kNames[kLayerCount] = {
      "check",
      "snapshot.pin",
      "snapshot.lookup",
      "reachability.compose",
      "ancestor_subgraph.extract",
      "flat_propagate.propagate",
      "resolve.decide",
      "probe",
      "commit",
      "wal.append",
      "system.apply",
      "reachability.rebuild",
      "bench.retain_index",
      "snapshot.build",
      "snapshot.publish",
      "wal.commit",
      "open",
      "binary_snapshot.load",
      "reachability.build",
      "persistent_system.replay",
      "wal.open",
  };
  return kNames[layer];
}

SpanBuffer::SpanBuffer(uint16_t thread, size_t capacity)
    // Value-initialised, so every page is touched up front: tracing
    // must not allocate or fault.
    : spans_(std::make_unique<SpanRecord[]>(capacity)),
      capacity_(capacity),
      thread_(thread) {}

void SpanBuffer::Prepare(size_t count) {
  for (size_t i = size_; i < std::min(size_ + count, capacity_); ++i) {
    spans_[i] = SpanRecord{};
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

SpanCost CalibrateSpanCost() {
  constexpr size_t kRounds = 20000;
  SpanBuffer flat(0, kRounds);
  for (size_t i = 0; i < kRounds; ++i) {
    flat.End(flat.Begin(kCheck, i, SpanBuffer::kNone));
  }
  SpanBuffer nested(0, 2 * kRounds);
  for (size_t i = 0; i < kRounds; ++i) {
    const uint32_t parent = nested.Begin(kCheck, i, SpanBuffer::kNone);
    nested.End(nested.Begin(kLookup, i, parent));
    nested.End(parent);
  }
  std::vector<double> inner;
  for (const SpanRecord& s : flat.spans()) {
    inner.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  std::vector<double> with_child;
  for (const SpanRecord& s : nested.spans()) {
    if (s.parent == SpanBuffer::kNone) {
      with_child.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  SpanCost cost;
  cost.inner_ns = SpanMedian(inner);
  cost.outer_ns = std::max(0.0, SpanMedian(with_child) - cost.inner_ns);
  return cost;
}

double SpanMedian(std::vector<double> values) {
  return BandQuantile(values, 0.5, 0.05);
}

namespace {

bool IsOffPath(uint16_t layer) {
  return layer == kRetainIndex || layer == kProbe;
}

}  // namespace

TraceAnalysis Analyze(const std::vector<const SpanBuffer*>& buffers,
                      const SpanCost& cost) {
  TraceAnalysis out;
  for (const SpanBuffer* buffer : buffers) {
    const std::span<const SpanRecord> spans = buffer->spans();
    const size_t n = spans.size();
    out.spans += n;
    out.dropped += buffer->dropped();
    // Parents precede their children in a buffer (Begin order), so one
    // forward pass resolves roots and blocking-ness.
    std::vector<double> child_ns(n, 0.0);
    std::vector<uint32_t> children(n, 0);
    std::vector<uint32_t> root(n);
    std::vector<bool> blocking(n);
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      if (s.parent == SpanBuffer::kNone) {
        root[i] = static_cast<uint32_t>(i);
        blocking[i] = !IsOffPath(s.layer);
      } else {
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
        ++children[s.parent];
        root[i] = root[s.parent];
        blocking[i] = blocking[s.parent] && !IsOffPath(s.layer);
      }
    }
    std::vector<double> blocking_sum(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      const double raw = static_cast<double>(s.end_ns - s.start_ns);
      // A child costs its parent `outer_ns` in all, of which its own
      // interval holds `inner_ns`; the rest lands in the parent's self.
      const double self =
          std::max(0.0, raw - child_ns[i] - cost.inner_ns -
                            children[i] * (cost.outer_ns - cost.inner_ns));
      const uint16_t root_layer = spans[root[i]].layer;
      out.self_ns[root_layer][s.layer].push_back(self);
      out.total_ns[root_layer][s.layer].push_back(
          std::max(0.0, raw - cost.inner_ns));
      if (s.parent != SpanBuffer::kNone && blocking[i]) {
        blocking_sum[root[i]] += self;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      if (s.parent != SpanBuffer::kNone) continue;
      out.blocking_ns[s.layer].push_back(blocking_sum[i]);
      out.root_ns[s.layer].push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool WriteSpans(const std::vector<const SpanBuffer*>& buffers,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tspan\tparent\trequest\tlayer\tstart_ns\tend_ns\n");
  for (const SpanBuffer* buffer : buffers) {
    const std::span<const SpanRecord> spans = buffer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%u\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\n",
                   static_cast<unsigned>(s.thread), i,
                   s.parent == SpanBuffer::kNone ? -1LL
                                                 : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   LayerName(static_cast<Layer>(s.layer)),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace ucrbench
