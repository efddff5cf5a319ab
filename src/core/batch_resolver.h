#ifndef UCR_CORE_BATCH_RESOLVER_H_
#define UCR_CORE_BATCH_RESOLVER_H_

#include <span>
#include <vector>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "graph/dag.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ucr::core {

/// Options for `BatchResolver`.
struct BatchResolverOptions {
  /// Total executors per batch: `threads - 1` pool workers plus the
  /// calling thread. 0 and 1 both mean "resolve inline". Clamped to
  /// `std::thread::hardware_concurrency()` at construction.
  size_t threads = 1;

  /// Resolve through the per-thread allocation-free hot path (scratch
  /// arena + flat propagation + streaming resolve; DESIGN.md §7).
  /// Decisions are bit-identical to the classic engines; disable to
  /// force the classic path as a differential oracle.
  bool use_fast_path = true;

  /// Propagation extension mode applied to every query.
  PropagationMode propagation_mode = PropagationMode::kBoth;
};

/// \brief Multi-threaded batch query evaluation over one system's
/// immutable inputs: an uncached parallel front end that runs one
/// `ResolveAccess` per query on a long-lived thread pool.
///
/// It holds no memo — a memoized decision comes only from a pinned
/// snapshot's epoch tables (`CheckAccessSnapshot`). Decisions are
/// deterministic, therefore bit-identical to the serial engine's for
/// any thread count (the differential tests assert this for all 48
/// strategies).
///
/// The resolver holds const references to the hierarchy and explicit
/// matrix: both must outlive it and must not be mutated while a batch
/// is in flight. Mutations *between* batches are safe: nothing is
/// derived ahead of a batch.
class BatchResolver {
 public:
  using Query = AccessControlSystem::AccessQuery;

  BatchResolver(const graph::Dag& dag, const acm::ExplicitAcm& eacm,
                BatchResolverOptions options = {});

  /// Convenience: binds to `system`'s hierarchy, matrix, and
  /// propagation mode, so decisions match `system.CheckAccess`.
  BatchResolver(const AccessControlSystem& system, size_t threads);

  /// \brief Binds to an epoch-published snapshot (DESIGN.md §11): the
  /// resolver reads `snapshot`'s immutable hierarchy, matrix, and
  /// propagation mode, so decisions match
  /// `AccessControlSystem::CheckAccessSnapshot` against that epoch.
  ///
  /// The caller must hold a `SnapshotManager::ReadPin` on the snapshot
  /// for the resolver's whole lifetime — the pin is what keeps the
  /// epoch's storage alive past subsequent publications.
  /// `options.propagation_mode` is overridden by the snapshot's own
  /// mode (a snapshot decision is only meaningful under the mode it
  /// was published with).
  BatchResolver(const HierarchySnapshot& snapshot,
                BatchResolverOptions options = {});

  /// \brief Resolves every query under `strategy`. Results align
  /// positionally with `queries`.
  ///
  /// Validates all ids up front, so worker threads cannot fail; the
  /// whole batch either resolves or returns the validation error.
  StatusOr<std::vector<acm::Mode>> ResolveBatch(
      std::span<const Query> queries, const Strategy& strategy);

  size_t threads() const { return options_.threads; }

 private:
  const graph::Dag* dag_;
  const acm::ExplicitAcm* eacm_;
  BatchResolverOptions options_;
  ThreadPool pool_;
};

}  // namespace ucr::core

#endif  // UCR_CORE_BATCH_RESOLVER_H_
