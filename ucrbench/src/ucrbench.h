// Shared declarations of the ucr benchmark (see ../NOTES.md).
//
// The benchmark drives the library only through its public headers. A
// run builds its inputs from the seed (hierarchy, matrix, durable
// store, query streams, commit plan), then measures one workload
// either untraced (end-to-end metrics) or traced (per-layer metrics).

#ifndef UCRBENCH_UCRBENCH_H_
#define UCRBENCH_UCRBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "core/system.h"

namespace ucrbench {

using Query = ucr::core::AccessControlSystem::AccessQuery;
using MutationOp = ucr::core::AccessControlSystem::MutationOp;
using Batch = std::vector<MutationOp>;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Workloads

/// The fixed shape of one workload. Nothing here is measured at run
/// time: rates and counts are constants, so two commits run identical
/// inputs.
struct WorkloadSpec {
  const char* name;
  bool scale;                 ///< 2^18 layered DAG instead of the enterprise one.
  size_t readers;             ///< Closed-loop reader threads.
  bool zipf_sinks;            ///< Zipf(1.0) over sinks; else uniform over all.
  double open_loop_rate;      ///< Commits/s of the open-loop writer; 0 = none.
  bool closed_loop_writer;    ///< A closed-loop writer beside the readers.
  size_t quiet_commits;       ///< Closed-loop commits after the read window.
  size_t setup_opens;         ///< Opens per run; setup_s is their median.
  size_t wal_tail_batches;    ///< Committed batches left in the store's WAL.
  /// Which untraced medians the traced run must reconcile with; one
  /// outside its tolerance is a failed check.
  bool reconcile_check;       ///< check_p50_us.
  bool reconcile_commit;      ///< commit_p50_ms.
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything a run needs, generated from the seed before any timing.
struct Fixture {
  const WorkloadSpec* spec = nullptr;
  std::string store_dir;       ///< Pristine store (snapshot + WAL tail).
  size_t subjects = 0;
  size_t memberships = 0;
  size_t explicit_entries = 0;
  /// `spec->readers` consecutive slices of `stream_len` queries each.
  std::vector<Query> queries;
  size_t stream_len = 0;
  /// Commit batches, starting after the ones already in the WAL tail.
  /// Cycling through the plan is consistent: its length is a multiple
  /// of every toggle pool's period.
  std::vector<Batch> plan;
};

/// Generates the workload's inputs and writes its store under `dir`.
Fixture BuildFixture(const WorkloadSpec& spec, uint64_t seed,
                     const std::string& dir);

/// Copies a store directory (snapshot + WAL) so each phase of a run
/// starts from the same pristine state.
void CopyStore(const std::string& from, const std::string& to);
void RemoveStore(const std::string& dir);

/// Options every store of the benchmark is opened with.
ucr::core::SystemOptions ServingOptions();

// ---------------------------------------------------------------------------
// Statistics

/// Quantile `q` of `values` as the mean of the order statistics whose
/// rank lies within +-`half_width` (a share of the sample) of q: a
/// smoothed estimator that gives integer-nanosecond samples fractional
/// digits. Small samples fall back to the nearest one or two ranks.
/// Reorders `values`.
double BandQuantile(std::vector<double>& values, double q,
                    double half_width = 0.005);

/// Fixed-capacity systematic sample: keeps every `stride`-th value and,
/// when full, drops every other kept value and doubles the stride, so
/// memory stays constant however long or fast the run is.
class DecimatingSample {
 public:
  explicit DecimatingSample(size_t capacity = size_t{1} << 20);
  void Add(double value) {
    if (++seen_ % stride_ != 0) return;
    if (kept_.size() == capacity_) Decimate();
    kept_.push_back(value);
  }
  /// Empties the sample, keeping its (already resident) buffer.
  void Clear() {
    kept_.clear();
    stride_ = 1;
    seen_ = 0;
  }
  std::vector<double>& values() { return kept_; }

 private:
  void Decimate();
  size_t capacity_;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
  std::vector<double> kept_;
};

// ---------------------------------------------------------------------------
// Results

/// One named metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome tallies of a run: `attempted` operations (decisions and
/// commits), `failed` ones (errors or wrong answers).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t oracle_checked = 0;
  uint64_t oracle_wrong = 0;
  uint64_t readback_checked = 0;
  uint64_t readback_wrong = 0;
  uint64_t store_checks = 0;
  uint64_t store_mismatches = 0;
  void Merge(const Tally& o);
};

/// Per-run deltas of the library's own `ucr_*` counters (histograms
/// contribute `<name>_count` and `<name>_sum`). Empty when the library
/// was built with UCR_METRICS=OFF.
using CounterDeltas = std::map<std::string, double>;
CounterDeltas CounterSnapshot();
CounterDeltas Delta(const CounterDeltas& before, const CounterDeltas& after);

/// Peak resident set (VmHWM) in MiB, and a reset of that peak to the
/// current resident set (clear_refs 5; no-op where unsupported).
double PeakRssMiB();
void ResetPeakRss();

/// Host/build stamp lines, printed with every result.
void PrintStamp(const std::string& revision);

/// Prints counters as "counter <name> <delta>" lines (or one "absent"
/// line under UCR_METRICS=OFF).
void PrintCounters(const char* phase, const CounterDeltas& deltas);

/// Prints the final result object as the last stdout line.
void PrintResult(const Tally& tally, const std::vector<Metric>& metrics);

// ---------------------------------------------------------------------------
// Runs

struct RunOptions {
  const WorkloadSpec* spec;
  double seconds;
  std::string work_dir;  ///< Scratch space inside the checkout.
};

/// Untraced run: every end-to-end metric.
std::vector<Metric> RunUntraced(const Fixture& fixture, const RunOptions& run,
                                Tally* tally);

/// Traced run: a serving half (traced reads interleaved with the timed
/// ones) and a traced-writer half of the same workload; every per-layer
/// metric, the reconciliation and the overhead.
std::vector<Metric> RunTraced(const Fixture& fixture, const RunOptions& run,
                              Tally* tally);

}  // namespace ucrbench

#endif  // UCRBENCH_UCRBENCH_H_
