#ifndef UCR_CORE_FLAT_PROPAGATE_H_
#define UCR_CORE_FLAT_PROPAGATE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "acm/acm.h"
#include "acm/mode.h"
#include "core/propagate.h"
#include "core/rights_bag.h"
#include "graph/dag.h"
#include "graph/scratch_subgraph.h"
#include "obs/profiler.h"

namespace ucr::core {

/// \brief Whole-hierarchy adapter for `FlatPropagator`: presents a
/// `Dag` through the same interface a sub-graph view offers, with
/// local ids equal to global ids and a caller-supplied topological
/// order (compute it once per refresh, reuse it for every column).
struct FlatDagView {
  const graph::Dag* dag;
  std::span<const graph::NodeId> topo;

  size_t member_count() const { return dag->node_count(); }
  graph::NodeId global_id(graph::NodeId v) const { return v; }
  std::span<const graph::NodeId> parents(graph::NodeId v) const {
    return dag->parents(v);
  }
  std::span<const graph::NodeId> topological_order() const { return topo; }
};

/// \brief Allocation-free propagation kernel (DESIGN.md §7): the
/// production replacement for `PropagateAggregated` /
/// `PropagateWholeDag` on the per-query hot path.
///
/// All per-node (distance, mode) → multiplicity bags live in one
/// pooled structure-of-arrays buffer (`pool_dis_` / `pool_mode_` /
/// `pool_mult_`) indexed by per-local-node [begin, end) offsets; bags
/// are appended in topological order by merging the parents' bags, so
/// there is no per-node vector and no per-node heap traffic. Explicit
/// labels arrive as a sparse ACM column (`ExplicitAcm::Column`) and
/// are scattered into epoch-stamped global-id-indexed arrays — staging
/// a new column is O(column size), not O(node count), and needs no
/// clearing.
///
/// Results are bag-for-bag identical to the classic engines
/// (multiplicities, entry order, and `PropagateStats` included); the
/// differential tests assert this over all 48 canonical strategies,
/// every propagation mode, and randomized DAGs.
///
/// One instance per thread (see `HotPath`); every buffer only ever
/// grows, so steady-state propagation performs zero heap allocations.
class FlatPropagator {
 public:
  FlatPropagator() = default;

  FlatPropagator(const FlatPropagator&) = delete;
  FlatPropagator& operator=(const FlatPropagator&) = delete;

  /// Stages the explicit labels of one (object, right) column for the
  /// next propagation. `node_count` bounds the subject ids considered,
  /// exactly like `ExplicitAcm::ExtractLabels`. Must be called before
  /// the first propagation; stays staged until the next `SetLabels`.
  void SetLabels(std::span<const acm::ExplicitAcm::ColumnEntry> column,
                 size_t node_count);

  /// \brief Propagates over `view` and returns the sink's normalized
  /// `allRights` bag — equal to `PropagateAggregated(sub, labels,
  /// options, stats)` on the equivalent sub-graph.
  ///
  /// `View` is either a `graph::ScratchSubgraphView` or an
  /// `AncestorSubgraph` (e.g. one shared through a snapshot's
  /// sub-graph table).
  /// The returned span aliases an internal buffer: it is invalidated
  /// by the next propagation on this instance.
  template <typename View>
  std::span<const RightsEntry> PropagateSink(
      const View& view, const PropagateOptions& options = {},
      PropagateStats* stats = nullptr) {
    // Phase attribution (DESIGN.md §14): no-op unless the enclosing
    // query is sampled.
    obs::ScopedPhaseTimer phase_timer(obs::Phase::kPropagate);
    Run(view, options, stats);
    return MaterializeBag(static_cast<graph::LocalId>(view.sink()));
  }

  /// \brief Propagates over every member of `view` (typically a
  /// `FlatDagView` for effective-matrix columns). Per-member bags are
  /// then read through `bag(v)`; each equals the corresponding
  /// `PropagateWholeDag` / `PropagateAggregatedAll` result.
  template <typename View>
  void PropagateAll(const View& view, const PropagateOptions& options = {},
                    PropagateStats* stats = nullptr) {
    Run(view, options, stats);
  }

  /// The bag of member `v` after `PropagateAll`. The span aliases a
  /// reusable buffer: it is invalidated by the next `bag` call or
  /// propagation.
  std::span<const RightsEntry> bag(graph::LocalId v) {
    return MaterializeBag(v);
  }

 private:
  static uint64_t SatAdd(uint64_t a, uint64_t b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
  }

  static void Observe(PropagateStats* stats, uint32_t dis) {
    stats->tuples_processed = SatAdd(stats->tuples_processed, 1);
    stats->max_distance = std::max(stats->max_distance, dis);
  }

  /// The Step-2 seed of member `v`: its staged explicit label, the 'd'
  /// marker if it is an unlabeled root, or nothing.
  template <typename View>
  std::optional<acm::PropagatedMode> SeedOf(const View& view,
                                            graph::LocalId v) const {
    const graph::NodeId g = view.global_id(v);
    assert(g < label_stamp_.size());
    if (label_stamp_[g] == label_epoch_) {
      return acm::ToPropagated(label_mode_[g]);
    }
    if (view.parents(v).empty()) return acm::PropagatedMode::kDefault;
    return std::nullopt;
  }

  template <typename View>
  void Run(const View& view, const PropagateOptions& options,
           PropagateStats* stats) {
    assert(label_epoch_ > 0 && "SetLabels() must precede propagation");
    const size_t n = view.member_count();
    if (bag_begin_.size() < n) {
      bag_begin_.resize(n);
      bag_end_.resize(n);
      clean_.resize(n);
    }
    pool_dis_.clear();
    pool_mode_.clear();
    pool_mult_.clear();

    const PropagationMode pmode = options.propagation_mode;
    for (const auto vv : view.topological_order()) {
      const auto v = static_cast<graph::LocalId>(vv);
      const std::optional<acm::PropagatedMode> seed = SeedOf(view, v);

      // Gather the parents' forwarded bags, shifted one edge down.
      // Under kSecondWins a labeled parent forwards only its own label
      // (the pool stores *result* bags, so recompute its seed here);
      // under the other modes a node forwards its whole result bag.
      merge_.clear();
      for (const auto pp : view.parents(v)) {
        const auto p = static_cast<graph::LocalId>(pp);
        if (pmode == PropagationMode::kSecondWins) {
          const std::optional<acm::PropagatedMode> parent_seed =
              SeedOf(view, p);
          if (parent_seed.has_value()) {
            merge_.push_back(RightsEntry{1, *parent_seed, 1});
            continue;
          }
        }
        for (size_t i = bag_begin_[p]; i < bag_end_[p]; ++i) {
          merge_.push_back(
              RightsEntry{pool_dis_[i] + 1, pool_mode_[i], pool_mult_[i]});
        }
      }
      NormalizeMerge();

      // kFirstWins: a seed counts once per root-path with no labeled
      // node strictly above v (same recurrence as the classic engine).
      uint64_t seed_multiplicity = 1;
      if (pmode == PropagationMode::kFirstWins) {
        uint64_t c = 0;
        if (view.parents(v).empty()) {
          c = 1;
        } else {
          for (const auto pp : view.parents(v)) {
            const auto p = static_cast<graph::LocalId>(pp);
            if (!SeedOf(view, p).has_value()) c = SatAdd(c, clean_[p]);
          }
        }
        clean_[v] = c;
        seed_multiplicity = c;
      }

      // Append v's result bag. The seed (distance 0) sorts strictly
      // before every arriving entry (distance >= 1), so prepending it
      // to the normalized merge buffer *is* the normalized bag.
      bag_begin_[v] = pool_dis_.size();
      if (seed.has_value() && seed_multiplicity > 0) {
        pool_dis_.push_back(0);
        pool_mode_.push_back(*seed);
        pool_mult_.push_back(seed_multiplicity);
      }
      for (const RightsEntry& e : merge_) {
        pool_dis_.push_back(e.dis);
        pool_mode_.push_back(e.mode);
        pool_mult_.push_back(e.multiplicity);
      }
      bag_end_[v] = pool_dis_.size();

      if (stats != nullptr) {
        for (size_t i = bag_begin_[v]; i < bag_end_[v]; ++i) {
          Observe(stats, pool_dis_[i]);
        }
      }
    }
  }

  /// Sorts `merge_` by (dis, mode) and merges equal groups in place.
  void NormalizeMerge();

  /// Copies the SoA slice of `v` into the reusable AoS output buffer.
  std::span<const RightsEntry> MaterializeBag(graph::LocalId v);

  // Staged column labels, global-id-indexed and epoch-stamped:
  // `label_mode_[g]` is meaningful only while `label_stamp_[g] ==
  // label_epoch_`. Never cleared.
  uint64_t label_epoch_ = 0;
  std::vector<uint64_t> label_stamp_;
  std::vector<acm::Mode> label_mode_;

  // The SoA bag pool plus per-local-node offset ranges into it.
  std::vector<uint32_t> pool_dis_;
  std::vector<acm::PropagatedMode> pool_mode_;
  std::vector<uint64_t> pool_mult_;
  std::vector<size_t> bag_begin_;
  std::vector<size_t> bag_end_;

  // kFirstWins clean-path counts, assigned in topological order.
  std::vector<uint64_t> clean_;

  // Reused per node / per bag read (clear() keeps capacity).
  std::vector<RightsEntry> merge_;
  std::vector<RightsEntry> out_;
};

/// \brief Per-thread bundle of the hot-path scratch state: one
/// sub-graph extraction arena plus one propagation kernel.
///
/// `ThreadLocal()` hands every thread its own warm instance, so batch
/// workers, the serving path, and matrix materialization all reuse
/// grown buffers without locking. Instances work across hierarchies
/// of different sizes (epoch stamps invalidate stale state).
struct HotPath {
  graph::SubgraphScratch scratch;
  FlatPropagator propagator;

  static HotPath& ThreadLocal();
};

}  // namespace ucr::core

#endif  // UCR_CORE_FLAT_PROPAGATE_H_
