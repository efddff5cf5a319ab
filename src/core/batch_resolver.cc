#include "core/batch_resolver.h"

#include "core/resolve.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace ucr::core {

namespace {
size_t PoolWorkers(size_t threads) { return threads <= 1 ? 0 : threads - 1; }

BatchResolverOptions Clamped(BatchResolverOptions options) {
  options.threads = ThreadPool::ClampToHardware(options.threads);
  return options;
}

/// Serving-path telemetry (DESIGN.md §8): per-query counters/latency
/// for the batch engine, distinct from the ResolveAccess family it
/// calls so dashboards can separate batch traffic from single queries.
/// Lock-free, allocation-free recording.
struct BatchMetrics {
  obs::Counter& queries = obs::Registry::Global().GetCounter(
      "ucr_batch_queries_total", "Queries answered by BatchResolver");
  obs::Counter& batches = obs::Registry::Global().GetCounter(
      "ucr_batch_batches_total", "ResolveBatch invocations");
  obs::Histogram& latency = obs::Registry::Global().GetHistogram(
      "ucr_batch_query_latency_ns",
      "Per-query latency inside ResolveBatch (ns)");
};

BatchMetrics& GetBatchMetrics() {
  static BatchMetrics* metrics = new BatchMetrics();
  return *metrics;
}
}  // namespace

BatchResolver::BatchResolver(const graph::Dag& dag,
                             const acm::ExplicitAcm& eacm,
                             BatchResolverOptions options)
    : dag_(&dag),
      eacm_(&eacm),
      options_(Clamped(options)),
      pool_(PoolWorkers(options_.threads)) {}

BatchResolver::BatchResolver(const AccessControlSystem& system, size_t threads)
    : BatchResolver(system.dag(), system.eacm(), [&] {
        BatchResolverOptions options;
        options.threads = threads;
        options.propagation_mode = system.propagation_mode();
        return options;
      }()) {}

BatchResolver::BatchResolver(const HierarchySnapshot& snapshot,
                             BatchResolverOptions options)
    : BatchResolver(snapshot.dag, snapshot.eacm, [&] {
        // The snapshot's mode wins: its epoch tables were derived
        // under it, and mixing modes within one epoch would silently
        // change semantics.
        options.propagation_mode = snapshot.propagation_mode;
        return options;
      }()) {}

StatusOr<std::vector<acm::Mode>> BatchResolver::ResolveBatch(
    std::span<const Query> queries, const Strategy& strategy) {
  // Batch-assembly phase (DESIGN.md §14): validation, canonicalization,
  // and the result-vector setup are the per-batch overhead that no
  // per-query phase sees. Sampled per batch and observed directly —
  // a per-query collection spanning ParallelFor would force clock
  // stamps onto every inline query.
  const bool sampled = obs::QueryTracer::ShouldSample();
  const uint64_t t_assemble = sampled ? obs::NowNs() : 0;
  for (const Query& q : queries) {
    if (q.subject >= dag_->node_count() ||
        q.object >= eacm_->object_count() ||
        q.right >= eacm_->right_count()) {
      return Status::OutOfRange("batch query references unknown ids");
    }
  }
  const Strategy canonical = strategy.Canonical();
  if constexpr (obs::kEnabled) GetBatchMetrics().batches.Inc();
  std::vector<acm::Mode> results(queries.size(), acm::Mode::kNegative);
  if constexpr (obs::kEnabled) {
    if (sampled) [[unlikely]] {
      static obs::Histogram& assemble_hist =
          obs::Registry::Global().GetHistogram(
              obs::PhaseMetricName(obs::Phase::kBatchAssemble),
              "Per-batch time in batch validation/assembly (ns, sampled)");
      assemble_hist.Observe(obs::NowNs() - t_assemble);
    }
  }
  ResolveAccessOptions resolve_options;
  resolve_options.use_fast_path = options_.use_fast_path;
  resolve_options.propagation_mode = options_.propagation_mode;
  pool_.ParallelFor(0, queries.size(), [&](size_t i) {
    const Query& q = queries[i];
    const uint64_t t_start = obs::kEnabled ? obs::NowNs() : 0;
    const uint64_t trace_before =
        obs::QueryTracer::LastSequenceOnThisThread();
    // Ids were validated above, so the engine cannot fail. It traces
    // and shadow-verifies the query itself.
    results[i] = ResolveAccess(*dag_, *eacm_, q.subject, q.object, q.right,
                               canonical, resolve_options)
                     .value();
    if constexpr (obs::kEnabled) {
      BatchMetrics& m = GetBatchMetrics();
      const uint64_t ns = obs::NowNs() - t_start;
      m.queries.Inc();
      m.latency.Observe(ns);
      const uint64_t trace = obs::QueryTracer::LastSequenceOnThisThread();
      if (trace != trace_before) [[unlikely]] {
        m.latency.RecordExemplar(ns, trace, q.subject, q.object, q.right);
      }
    }
  });
  return results;
}

}  // namespace ucr::core
