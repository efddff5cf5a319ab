// The measured runs: an untraced serving run (end-to-end metrics) and a
// traced one that drives the same workload through the layer calls in
// the order the library makes them (per-layer metrics).

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/binary_snapshot.h"
#include "core/flat_propagate.h"
#include "core/persistent_system.h"
#include "core/resolve.h"
#include "core/snapshot.h"
#include "core/wal.h"
#include "graph/ancestor_subgraph.h"
#include "graph/reachability.h"
#include "span_trace.h"
#include "ucrbench.h"

namespace ucrbench {

namespace {

namespace core = ucr::core;
namespace graph = ucr::graph;
namespace acm = ucr::acm;

constexpr double kWarmupSeconds = 1.0;
/// Each reader checks one decision against the oracle this often; the
/// time the check takes is excluded from the reader's active time.
constexpr uint64_t kOracleIntervalNs = 50'000'000;
/// Every kLatencyStride-th decision of an untraced reader is timed.
constexpr uint64_t kLatencyStride = 4;
/// Every kTraceStride-th request of a traced reader records spans.
constexpr uint64_t kTraceStride = 256;
/// Off-path extraction probes per traced reader: at most one per this.
constexpr uint64_t kProbeIntervalNs = 20'000'000;
constexpr size_t kReaderSpanCapacity = size_t{1} << 19;
constexpr size_t kWriterSpanCapacity = size_t{1} << 16;
/// The open-loop writer gives up this long after the window ends and
/// counts what it has not started as backlog.
constexpr uint64_t kWriterGraceNs = 5'000'000'000;
/// Reconciliation tolerances: the blocking steps' summed self times
/// against the untraced median, as a share of that median.
/// Traced and timed reads interleave, so the read tolerance covers what
/// the calibrated span cost leaves of the tracing overhead: ~100 ns of
/// spans around a ~500 ns decision, and a span boundary keeps one step's
/// memory accesses from overlapping the next step's, which on
/// scale_write's cache-missing reads left +11..+24 % over 8 runs.
/// Commits come from separate halves of the run, so the commit tolerance
/// covers what commit medians drift between halves on a shared host
/// (-16..+18 % in the runs made while tuning): the commit metrics' own
/// bound.
constexpr double kCheckTolerance = 0.30;
constexpr double kCommitTolerance = 0.25;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ucrbench: %s\n", what.c_str());
  std::exit(2);
}

double Median(std::vector<double> values) { return BandQuantile(values, 0.5); }

/// Commit quantiles: a run has only ~10^2 commits, and a shared host
/// has slow spells of a few seconds, so a run's p90 moves with whether
/// one fell inside it. `values` (in commit order) are cut into
/// kCommitSegments consecutive stretches; the quantile of each averages
/// the order statistics within +-5 % of the rank, and the median over
/// the stretches is reported, which one slow stretch does not move (a
/// remainder of fewer than kCommitSegments commits is left out).
constexpr size_t kCommitSegments = 5;
constexpr double kCommitBand = 0.05;
double CommitQuantile(const std::vector<double>& values, double q) {
  const size_t per = values.size() / kCommitSegments;
  if (per < 10) {
    std::vector<double> all = values;
    return BandQuantile(all, q, kCommitBand);
  }
  std::vector<double> per_segment;
  for (size_t k = 0; k < kCommitSegments; ++k) {
    std::vector<double> segment(values.begin() + k * per,
                                values.begin() + (k + 1) * per);
    per_segment.push_back(BandQuantile(segment, q, kCommitBand));
  }
  return Median(per_segment);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t FileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// ---------------------------------------------------------------------------
// Output checks (all outside the timed regions)

/// The oracle: ResolveAccess with the reachability index and the fast
/// path off, on the snapshot's own hierarchy and matrix.
bool OracleAgrees(const core::HierarchySnapshot& snap, const Query& q,
                  acm::Mode got) {
  core::ResolveAccessOptions options;
  options.use_fast_path = false;
  options.use_reachability_index = false;
  options.propagation_mode = snap.propagation_mode;
  const auto want = core::ResolveAccess(snap.dag, snap.eacm, q.subject,
                                        q.object, q.right,
                                        snap.default_strategy, options);
  return want.ok() && *want == got;
}

/// Read-back: every op of a committed batch is visible in the
/// currently published snapshot.
bool BatchVisible(const core::SnapshotManager& manager, const Batch& batch) {
  const core::SnapshotManager::ReadPin pin = manager.Pin();
  if (!pin) return false;
  for (const MutationOp& op : batch) {
    using Kind = MutationOp::Kind;
    if (op.kind == Kind::kAddMembership || op.kind == Kind::kRemoveMembership) {
      const graph::NodeId parent = pin->dag.FindNode(op.subject);
      const graph::NodeId child = pin->dag.FindNode(op.object);
      if (parent == graph::kInvalidNode || child == graph::kInvalidNode ||
          pin->dag.HasEdge(parent, child) != (op.kind == Kind::kAddMembership)) {
        return false;
      }
      continue;
    }
    const graph::NodeId subject = pin->dag.FindNode(op.subject);
    const auto object = pin->eacm.FindObject(op.object);
    const auto right = pin->eacm.FindRight(op.right);
    if (subject == graph::kInvalidNode || !object.ok() || !right.ok()) {
      return false;
    }
    const std::optional<acm::Mode> mode = pin->eacm.Get(subject, *object, *right);
    const bool ok = op.kind == Kind::kRevoke
                        ? !mode.has_value()
                        : mode == (op.kind == Kind::kGrant ? acm::Mode::kPositive
                                                           : acm::Mode::kNegative);
    if (!ok) return false;
  }
  return true;
}

/// The store-level check: a fresh `PersistentSystem` recovered from the
/// store encodes to exactly the bytes of the live state.
void CheckReopen(const std::string& dir, const std::string& live_bytes,
                 Tally* tally) {
  core::SystemOptions options = ServingOptions();
  options.enable_snapshot_reads = false;
  auto reopened = core::PersistentSystem::Open(dir, options);
  ++tally->attempted;
  ++tally->store_checks;
  if (!reopened.ok() ||
      core::EncodeBinarySnapshot(reopened->system(), reopened->last_lsn()) !=
          live_bytes) {
    ++tally->failed;
    ++tally->store_mismatches;
  }
}

// ---------------------------------------------------------------------------
// Readers

/// Which way traced reads went; compose entries only of traced ones.
struct PathCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t composed = 0;
  std::vector<double> compose_entries;
};

struct ReaderStats {
  /// Position in the reader's query stream; successive loops (warm-up,
  /// window segments) continue where the last one stopped.
  size_t cursor = 0;
  uint64_t decisions = 0;
  uint64_t failed = 0;
  double active_ns = 0.0;
  DecimatingSample latency_ns;
  Tally tally;  ///< Oracle checks and, after each loop, the decisions.
  // Traced runs: where the requests went, and span buffers.
  PathCounts path;
  std::vector<double> subgraph_nodes;
  std::unique_ptr<SpanBuffer> spans;

  /// Folds the loop's decisions into the tally and clears the
  /// performance counters (between warm-up and the window).
  void EndLoop() {
    tally.attempted += decisions;
    tally.failed += failed;
    decisions = 0;
    failed = 0;
    active_ns = 0.0;
    latency_ns.Clear();
    path = PathCounts();
    subgraph_nodes.clear();
  }
};

/// Runs `body(reader_index, stop)` on one thread per reader for
/// `seconds`, then stops and joins them all.
template <typename Body>
void RunReaders(size_t readers, double seconds, Body&& body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] { body(t, stop); });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
}

/// SnapshotResolveAccess's steps on a pinned snapshot; nullopt on an
/// out-of-range query.
std::optional<acm::Mode> DecideOnPin(const core::HierarchySnapshot& snap,
                                     const Query& q, SpanBuffer* buf,
                                     uint64_t req, uint32_t parent,
                                     PathCounts& st) {
  if (q.subject >= snap.dag.node_count() ||
      q.object >= snap.eacm.object_count() ||
      q.right >= snap.eacm.right_count()) {
    return std::nullopt;
  }
  const uint8_t strategy = snap.default_strategy.CanonicalIndex();
  std::optional<acm::Mode> cached;
  {
    ScopedSpan span(buf, kLookup, req, parent);
    cached = snap.resolution.Lookup(q.subject, q.object, q.right, strategy);
  }
  if (cached.has_value()) {
    ++st.hits;
    return cached;
  }
  ++st.misses;
  core::ResolveAccessOptions gate;
  gate.propagation_mode = snap.propagation_mode;
  core::HotPath& hot = core::HotPath::ThreadLocal();
  std::span<const core::RightsEntry> bag;
  std::unique_ptr<const graph::AncestorSubgraph> local;
  if (core::ReachIndexUsable(snap.reach_index.get(), snap.dag, snap.eacm, gate)) {
    ScopedSpan span(buf, kCompose, req, parent);
    bag = core::ComposeIndexedSinkBag(*snap.reach_index, q.subject, q.object,
                                      q.right, snap.propagation_mode);
    ++st.composed;
    if (buf != nullptr) st.compose_entries.push_back(static_cast<double>(bag.size()));
  } else {
    const graph::AncestorSubgraph* sub = nullptr;
    {
      ScopedSpan span(buf, kExtract, req, parent);
      sub = snap.subgraphs.Find(q.subject);
      if (sub == nullptr) {
        local = std::make_unique<const graph::AncestorSubgraph>(snap.dag, q.subject,
                                                                hot.scratch);
        sub = snap.subgraphs.Install(q.subject, local);
      }
    }
    ScopedSpan span(buf, kPropagate, req, parent);
    hot.propagator.SetLabels(snap.eacm.Column(q.object, q.right),
                             snap.dag.node_count());
    core::PropagateOptions options;
    options.propagation_mode = snap.propagation_mode;
    bag = hot.propagator.PropagateSink(*sub, options);
  }
  acm::Mode mode;
  {
    ScopedSpan span(buf, kDecide, req, parent);
    mode = core::ResolveEntries(bag, snap.default_strategy);
  }
  // No span of its own (its ~40 ns land in the pin's self time): every
  // span boundary keeps the CPU from overlapping the memory accesses on
  // either side of it, which the calibrated span cost does not remove.
  snap.resolution.TryStore(q.subject, q.object, q.right, strategy, mode);
  return mode;
}

/// One traced read: check -> pin -> lookup -> (miss) compose or
/// extract -> propagate, then decide -> store; release the pin.
std::optional<acm::Mode> TracedCheck(const core::SnapshotManager& manager,
                                     const Query& q, SpanBuffer* buf,
                                     uint64_t req, PathCounts& st) {
  ScopedSpan root(buf, kCheck, req, SpanBuffer::kNone);
  const uint32_t pin_span =
      buf != nullptr ? buf->Begin(kPin, req, root.id()) : SpanBuffer::kNone;
  std::optional<acm::Mode> mode;
  {
    const core::SnapshotManager::ReadPin pin = manager.Pin();
    mode = DecideOnPin(*pin, q, buf, req, pin_span, st);
  }
  if (buf != nullptr) buf->End(pin_span);
  return mode;
}

/// Off-path probe: what extraction + propagation would cost for this
/// subject if the index were not usable.
void ExtractionProbe(const core::SnapshotManager& manager, const Query& q,
                     SpanBuffer* buf, uint64_t req, ReaderStats& st) {
  ScopedSpan root(buf, kProbe, req, SpanBuffer::kNone);
  const core::SnapshotManager::ReadPin pin = manager.Pin();
  core::HotPath& hot = core::HotPath::ThreadLocal();
  std::optional<graph::AncestorSubgraph> sub;
  {
    ScopedSpan span(buf, kExtract, req, root.id());
    sub.emplace(pin->dag, q.subject, hot.scratch);
  }
  st.subgraph_nodes.push_back(static_cast<double>(sub->member_count()));
  ScopedSpan span(buf, kPropagate, req, root.id());
  hot.propagator.SetLabels(pin->eacm.Column(q.object, q.right),
                           pin->dag.node_count());
  core::PropagateOptions options;
  options.propagation_mode = pin->propagation_mode;
  hot.propagator.PropagateSink(*sub, options);
}

/// Closed-loop reader on the production call, CheckAccessSnapshot. When
/// `record` is set (traced runs, after warm-up), every kTraceStride-th
/// request instead runs through the layer calls on the same system's
/// snapshots, with spans, and is not timed: traced and timed requests
/// share the system, its table and the time they run in.
void ServingReader(const core::AccessControlSystem& system,
                   std::span<const Query> stream, const std::atomic<bool>& stop,
                   bool record, uint16_t thread, ReaderStats& st) {
  const core::SnapshotManager& manager = *system.snapshots();
  size_t& i = st.cursor;
  auto next_query = [&]() -> const Query& {
    const Query& q = stream[i];
    i = i + 1 == stream.size() ? 0 : i + 1;
    return q;
  };
  uint64_t n = 0;
  const uint64_t begin = NowNs();
  uint64_t oracle_ns = 0;
  uint64_t next_oracle = begin + kOracleIntervalNs;
  uint64_t next_probe = begin;
  while (!stop.load(std::memory_order_relaxed)) {
    for (uint64_t k = 0; k < 64; ++k, ++n) {
      const Query& q = next_query();
      if (record && n % kTraceStride == 0) {
        SpanBuffer* buf = st.spans.get();
        buf->Prepare(8);
        const uint64_t req = (uint64_t{thread} << 40) | n;
        const uint64_t misses = st.path.misses;
        st.failed += TracedCheck(manager, q, buf, req, st.path).has_value() ? 0 : 1;
        if (st.path.misses != misses && NowNs() >= next_probe) {
          ExtractionProbe(manager, q, buf, req, st);
          next_probe = NowNs() + kProbeIntervalNs;
        }
      } else if (k % kLatencyStride == 0) {
        const uint64_t t0 = NowNs();
        const bool ok = system.CheckAccessSnapshot(q.subject, q.object, q.right).ok();
        st.latency_ns.Add(static_cast<double>(NowNs() - t0));
        st.failed += ok ? 0 : 1;
      } else {
        st.failed +=
            system.CheckAccessSnapshot(q.subject, q.object, q.right).ok() ? 0 : 1;
      }
    }
    st.decisions += 64;
    const uint64_t now = NowNs();
    if (now < next_oracle) continue;
    // Pin first: if no epoch was published by the time the call
    // returns, the call answered from this very snapshot.
    const Query& q = next_query();
    {
      const core::SnapshotManager::ReadPin pin = manager.Pin();
      const auto got = system.CheckAccessSnapshot(q.subject, q.object, q.right);
      ++st.tally.attempted;
      if (!got.ok()) {
        ++st.tally.failed;
      } else if (manager.current_epoch() == pin->epoch) {
        ++st.tally.oracle_checked;
        if (!OracleAgrees(*pin, q, *got)) {
          ++st.tally.oracle_wrong;
          ++st.tally.failed;
        }
      }
    }
    const uint64_t after = NowNs();
    oracle_ns += after - now;
    next_oracle = after + kOracleIntervalNs;
  }
  st.active_ns += static_cast<double>(NowNs() - begin - oracle_ns);
}

/// Closed-loop reader of a traced store: the layer calls, without spans.
void DecomposedReader(const core::SnapshotManager& manager,
                      std::span<const Query> stream,
                      const std::atomic<bool>& stop, ReaderStats& st) {
  size_t& i = st.cursor;
  auto next_query = [&]() -> const Query& {
    const Query& q = stream[i];
    i = i + 1 == stream.size() ? 0 : i + 1;
    return q;
  };
  const uint64_t begin = NowNs();
  uint64_t oracle_ns = 0;
  uint64_t next_oracle = begin + kOracleIntervalNs;
  while (!stop.load(std::memory_order_relaxed)) {
    for (uint64_t k = 0; k < 64; ++k) {
      const Query& q = next_query();
      st.failed += TracedCheck(manager, q, nullptr, 0, st.path).has_value() ? 0 : 1;
    }
    st.decisions += 64;
    const uint64_t now = NowNs();
    if (now < next_oracle) continue;
    const Query& q = next_query();
    {
      PathCounts uncounted;  // Keeps the oracle out of hit/miss counts.
      const core::SnapshotManager::ReadPin pin = manager.Pin();
      const auto got = DecideOnPin(*pin, q, nullptr, 0, SpanBuffer::kNone,
                                   uncounted);
      ++st.tally.attempted;
      ++st.tally.oracle_checked;
      if (!got.has_value() || !OracleAgrees(*pin, q, *got)) {
        ++st.tally.oracle_wrong;
        ++st.tally.failed;
      }
    }
    const uint64_t after = NowNs();
    oracle_ns += after - now;
    next_oracle = after + kOracleIntervalNs;
  }
  st.active_ns += static_cast<double>(NowNs() - begin - oracle_ns);
}

// ---------------------------------------------------------------------------
// Commits

struct CommitLog {
  std::vector<double> latency_ms;  ///< From due time (open loop) or start.
  std::vector<double> late_ms;     ///< Open loop: start minus due time.
  uint64_t commits = 0;
  uint64_t backlog = 0;            ///< Open loop: due, not started at the end.
  double elapsed_s = 0.0;
  Tally tally;
  // Traced runs.
  std::vector<double> affected;
  double carried = 0.0;
  double dropped = 0.0;
};

/// One commit plus its read-back. `commit(batch, request)` returns
/// whether the batch was fully applied and durably committed.
template <typename CommitFn>
void CommitAndCheck(const Batch& batch, uint64_t request, CommitFn& commit,
                    const core::SnapshotManager& manager, CommitLog& log) {
  const bool ok = commit(batch, request);
  ++log.commits;
  ++log.tally.attempted;
  if (!ok) ++log.tally.failed;
  ++log.tally.readback_checked;
  if (!BatchVisible(manager, batch)) {
    ++log.tally.readback_wrong;
    ++log.tally.failed;
  }
}

/// Open loop at a fixed rate: batch i is due at start + i / rate and is
/// timed from its due time, so a stall delays every later commit too.
template <typename CommitFn>
void OpenLoopWriter(double rate, uint64_t start, uint64_t end,
                    const std::vector<Batch>& plan, CommitFn commit,
                    const core::SnapshotManager& manager, CommitLog& log) {
  const double period_ns = 1e9 / rate;
  uint64_t last_done = start;
  for (uint64_t i = 0;; ++i) {
    const auto due = start + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
    if (due >= end) break;
    uint64_t now = NowNs();
    if (now > end + kWriterGraceNs) {
      // Overloaded: everything still due is backlog.
      log.backlog += static_cast<uint64_t>(
          std::ceil(static_cast<double>(end - due) / period_ns));
      break;
    }
    if (now > end) ++log.backlog;  // Due inside the window, started after it.
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    log.late_ms.push_back(static_cast<double>(now - due) / 1e6);
    CommitAndCheck(plan[i % plan.size()], i, commit, manager, log);
    last_done = NowNs();
    log.latency_ms.push_back(static_cast<double>(last_done - due) / 1e6);
  }
  // Achieved rate: commits completed per second from the first due
  // time to the last completion.
  log.elapsed_s = static_cast<double>(last_done - start) / 1e9;
}

/// Closed loop: the next commit starts when the previous one returns;
/// stops at `end` or after `max_commits`.
template <typename CommitFn>
void ClosedLoopWriter(uint64_t end, size_t max_commits, size_t first_batch,
                      const std::vector<Batch>& plan, CommitFn commit,
                      const core::SnapshotManager& manager, CommitLog& log) {
  const uint64_t start = NowNs();
  uint64_t done = start;
  for (size_t i = 0; i < max_commits && done < end; ++i) {
    const uint64_t t0 = NowNs();
    CommitAndCheck(plan[(first_batch + i) % plan.size()], first_batch + i,
                   commit, manager, log);
    done = NowNs();
    log.latency_ms.push_back(static_cast<double>(done - t0) / 1e6);
  }
  log.elapsed_s += static_cast<double>(done - start) / 1e9;
}

/// The window: readers for `seconds`, and beside them the workload's
/// writer (open or closed loop, or none). Quiet commits run after the
/// readers have stopped, so no epoch is published while they read.
template <typename ReaderBody, typename CommitFn>
void RunWindow(const WorkloadSpec& spec, double seconds,
               const std::vector<Batch>& plan,
               const core::SnapshotManager& manager, ReaderBody&& reader,
               CommitFn commit, CommitLog& log) {
  const uint64_t start = NowNs();
  const auto end = start + static_cast<uint64_t>(seconds * 1e9);
  std::thread writer;
  if (spec.open_loop_rate > 0.0) {
    writer = std::thread([&] {
      OpenLoopWriter(spec.open_loop_rate, start, end, plan, commit, manager, log);
    });
  } else if (spec.closed_loop_writer) {
    writer = std::thread([&] {
      ClosedLoopWriter(end, SIZE_MAX, 0, plan, commit, manager, log);
    });
  }
  RunReaders(spec.readers, seconds, reader);
  if (writer.joinable()) writer.join();
  if (spec.quiet_commits > 0) {
    ClosedLoopWriter(UINT64_MAX, spec.quiet_commits, 0, plan, commit, manager, log);
  }
}

std::span<const Query> Slice(const Fixture& fx, size_t reader) {
  return {fx.queries.data() + reader * fx.stream_len, fx.stream_len};
}

// ---------------------------------------------------------------------------
// The serving run: the production calls

/// Span recording for the reads of a traced run's serving half.
struct ReadTracing {
  SpanCost cost;
  std::string spans_path;
};

struct ServeResult {
  std::vector<double> open_s;
  std::vector<std::unique_ptr<ReaderStats>> readers;
  CommitLog log;
  CounterDeltas counters;
  double rss_peak_mib = 0.0;
  Tally tally;
  TraceAnalysis analysis;  ///< Traced reads, when recorded.

  double CheckQps() const {
    double qps = 0.0;
    for (const auto& r : readers) {
      if (r->active_ns > 0) qps += static_cast<double>(r->decisions) * 1e9 / r->active_ns;
    }
    return qps;
  }
  std::vector<double> CheckLatencyUs() const {
    std::vector<double> all;
    for (const auto& r : readers) {
      for (const double ns : r->latency_ns.values()) all.push_back(ns / 1e3);
    }
    return all;
  }
};

/// Opens the store `opens` times (the last one serves), warms the
/// readers, runs the window, and checks the store on reopen. With
/// `tracing`, the readers record spans for every kTraceStride-th request.
ServeResult Serve(const Fixture& fx, const std::string& dir, double seconds,
                  size_t opens, const ReadTracing* tracing = nullptr) {
  const WorkloadSpec& spec = *fx.spec;
  ServeResult out;
  for (size_t t = 0; t < spec.readers; ++t) {
    auto r = std::make_unique<ReaderStats>();
    if (tracing != nullptr) {
      r->spans = std::make_unique<SpanBuffer>(static_cast<uint16_t>(t + 2),
                                              kReaderSpanCapacity);
      r->path.compose_entries.reserve(kReaderSpanCapacity);
      r->subgraph_nodes.reserve(4096);
    }
    out.readers.push_back(std::move(r));
  }
  out.log.latency_ms.reserve(4096);
  out.log.late_ms.reserve(4096);
  ResetPeakRss();

  std::optional<core::PersistentSystem> live;
  for (size_t k = 0; k < opens; ++k) {
    live.reset();  // At most one system in memory at a time.
    const uint64_t t0 = NowNs();
    auto opened = core::PersistentSystem::Open(dir, ServingOptions());
    if (!opened.ok()) Die("open store: " + opened.status().message());
    const Query& q = fx.queries.front();
    const bool first_ok =
        opened->system().CheckAccessSnapshot(q.subject, q.object, q.right).ok();
    out.open_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    ++out.tally.attempted;
    if (!first_ok) ++out.tally.failed;
    live.emplace(std::move(opened).value());
  }
  const core::AccessControlSystem& system = live->system();
  bool record = false;
  auto reader = [&](size_t t, const std::atomic<bool>& stop) {
    ServingReader(system, Slice(fx, t), stop, record, static_cast<uint16_t>(t + 2),
                  *out.readers[t]);
  };
  RunReaders(spec.readers, kWarmupSeconds, reader);
  for (auto& r : out.readers) r->EndLoop();

  record = tracing != nullptr;
  const CounterDeltas before = CounterSnapshot();
  auto commit = [&](const Batch& batch, uint64_t) {
    core::AccessControlSystem::MutationBatchStats stats;
    const ucr::Status status = live->Apply(batch, &stats);
    return status.ok() && stats.applied == batch.size();
  };
  RunWindow(spec, seconds, fx.plan, *system.snapshots(), reader, commit, out.log);
  out.counters = Delta(before, CounterSnapshot());
  out.rss_peak_mib = PeakRssMiB();

  const std::string live_bytes =
      core::EncodeBinarySnapshot(live->system(), live->last_lsn());
  live.reset();
  CheckReopen(dir, live_bytes, &out.tally);
  if (tracing != nullptr) {
    std::vector<const SpanBuffer*> buffers;
    for (const auto& r : out.readers) buffers.push_back(r->spans.get());
    out.analysis = Analyze(buffers, tracing->cost);
    if (!WriteSpans(buffers, tracing->spans_path)) {
      std::fprintf(stderr, "ucrbench: could not write %s\n",
                   tracing->spans_path.c_str());
    }
  }
  for (const auto& r : out.readers) {
    const uint64_t decisions = r->decisions;
    const uint64_t failed = r->failed;
    out.tally.Merge(r->tally);
    out.tally.attempted += decisions;
    out.tally.failed += failed;
  }
  out.tally.Merge(out.log.tally);
  return out;
}

void PrintWriter(const char* phase, const WorkloadSpec& spec, CommitLog& log) {
  if (spec.open_loop_rate > 0.0) {
    std::printf("writer %s open_loop rate=%.3g/s commits=%llu "
                "writer.late_p90_ms=%.4f backlog=%llu\n",
                phase, spec.open_loop_rate,
                static_cast<unsigned long long>(log.commits),
                BandQuantile(log.late_ms, 0.9),
                static_cast<unsigned long long>(log.backlog));
  } else {
    std::printf("writer %s closed_loop commits=%llu\n", phase,
                static_cast<unsigned long long>(log.commits));
  }
}

// ---------------------------------------------------------------------------
// The traced run: the library's serving path, rebuilt from its public
// layer calls in the order the library makes them, with spans.

/// What a `PersistentSystem` holds while serving, decomposed: the
/// in-memory system (snapshot reads off), the epoch ring readers pin,
/// and the WAL writer.
struct TracedStore {
  std::unique_ptr<core::AccessControlSystem> twin;
  core::SnapshotManager manager;
  std::unique_ptr<core::WalWriter> wal;
  /// Grown exactly as the library grows it (AccessControlSystem::
  /// PublishSnapshotLocked).
  size_t resolution_capacity = size_t{1} << 14;
};

/// The publication half of ApplyMutations: index refresh, snapshot
/// build with carry-over, publish.
core::SnapshotBuildStats PublishNext(TracedStore& st, SpanBuffer* buf,
                                     uint64_t req, uint32_t parent,
                                     Layer index_layer) {
  const graph::ReachabilityIndex* index = nullptr;
  {
    ScopedSpan span(buf, index_layer, req, parent);
    index = st.twin->reachability_index();
  }
  // The system keeps its index private; the snapshot needs an owning
  // pointer, so the benchmark copies it (off the blocking path).
  std::shared_ptr<const graph::ReachabilityIndex> owned;
  {
    ScopedSpan span(buf, kRetainIndex, req, parent);
    if (index != nullptr) {
      owned = std::make_shared<const graph::ReachabilityIndex>(*index);
    }
  }
  core::SnapshotBuildStats stats;
  std::unique_ptr<const core::HierarchySnapshot> next;
  core::SnapshotManager::ReadPin previous;
  {
    ScopedSpan span(buf, kBuild, req, parent);
    previous = st.manager.Pin();
    if (previous &&
        previous->resolution.size() * 2 >= previous->resolution.capacity() &&
        st.resolution_capacity < (size_t{1} << 22)) {
      st.resolution_capacity *= 2;
    }
    next = core::BuildSnapshot(st.twin->dag(), st.twin->eacm(),
                               st.twin->strategy(), st.twin->propagation_mode(),
                               st.manager.current_epoch() + 1, previous.get(),
                               st.resolution_capacity, std::move(owned), &stats);
  }
  {
    ScopedSpan span(buf, kPublish, req, parent);
    st.manager.Publish(std::move(next));
  }
  return stats;
}

/// PersistentSystem::Apply, decomposed: BeginBatch -> ApplyMutations
/// (snapshot reads off) -> reachability_index() -> BuildSnapshot ->
/// Publish -> Commit.
bool TracedCommit(TracedStore& st, const Batch& batch, SpanBuffer* buf,
                  uint64_t req, CommitLog& log) {
  ScopedSpan root(buf, kCommit, req, SpanBuffer::kNone);
  {
    ScopedSpan span(buf, kWalAppend, req, root.id());
    if (!st.wal->BeginBatch(batch).ok()) return false;
  }
  core::AccessControlSystem::MutationBatchStats stats;
  ucr::Status applied;
  {
    ScopedSpan span(buf, kApply, req, root.id());
    applied = st.twin->ApplyMutations(batch, &stats);
  }
  const core::SnapshotBuildStats build =
      PublishNext(st, buf, req, root.id(), kRebuild);
  bool committed = false;
  {
    ScopedSpan span(buf, kWalCommit, req, root.id());
    committed = st.wal->Commit(batch.size(), stats.applied).ok();
  }
  log.affected.push_back(static_cast<double>(stats.affected.size()));
  log.carried += static_cast<double>(build.resolution_carried);
  log.dropped += static_cast<double>(build.resolution_dropped);
  return applied.ok() && committed && stats.applied == batch.size();
}

/// PersistentSystem::Open, decomposed: load the snapshot, build the
/// index and publish epoch 1 (what enabling snapshot reads does), replay
/// the WAL tail publishing once per batch, open the WAL writer, answer
/// the first decision.
bool TracedOpen(TracedStore& st, const std::string& dir, SpanBuffer* buf,
                const Query& first, PathCounts& counts) {
  constexpr uint64_t kReq = 0;
  ScopedSpan root(buf, kOpen, kReq, SpanBuffer::kNone);
  core::SystemOptions options = ServingOptions();
  options.enable_snapshot_reads = false;
  core::SnapshotMeta meta;
  {
    ScopedSpan span(buf, kLoad, kReq, root.id());
    auto loaded = core::LoadBinarySnapshot(
        core::PersistentSystem::SnapshotPath(dir), options, &meta);
    if (!loaded.ok()) return false;
    st.twin = std::make_unique<core::AccessControlSystem>(std::move(loaded).value());
  }
  PublishNext(st, buf, kReq, root.id(), kReachBuild);
  uint64_t last_lsn = meta.lsn;
  {
    ScopedSpan replay(buf, kReplay, kReq, root.id());
    auto contents = core::ReadWal(core::PersistentSystem::WalPath(dir),
                                  /*repair_torn_tail=*/true);
    if (!contents.ok()) return false;
    last_lsn = std::max(meta.lsn, contents->last_lsn);
    for (const core::WalEvent& event : contents->events) {
      if (event.lsn <= meta.lsn) continue;
      // The benchmark's stores log mutation batches only.
      if (event.kind != core::WalEvent::Kind::kBatch) return false;
      core::AccessControlSystem::MutationBatchStats stats;
      ucr::Status status;
      {
        ScopedSpan span(buf, kApply, kReq, replay.id());
        status = st.twin->ApplyMutations(
            std::span<const MutationOp>(event.ops).first(event.applied), &stats);
      }
      if (!status.ok() || stats.applied != event.applied) return false;
      if (event.applied > 0) PublishNext(st, buf, kReq, replay.id(), kRebuild);
    }
  }
  {
    ScopedSpan span(buf, kWalOpen, kReq, root.id());
    auto wal = core::WalWriter::Open(core::PersistentSystem::WalPath(dir),
                                     last_lsn + 1);
    if (!wal.ok()) return false;
    st.wal = std::make_unique<core::WalWriter>(std::move(wal).value());
  }
  const uint32_t pin_span =
      buf != nullptr ? buf->Begin(kPin, kReq, root.id()) : SpanBuffer::kNone;
  std::optional<acm::Mode> mode;
  {
    const core::SnapshotManager::ReadPin pin = st.manager.Pin();
    mode = DecideOnPin(*pin, first, buf, kReq, pin_span, counts);
  }
  if (buf != nullptr) buf->End(pin_span);
  return mode.has_value();
}

struct TracedResult {
  CommitLog log;
  CounterDeltas counters;
  double wal_bytes = 0.0;
  TraceAnalysis analysis;
  Tally tally;
};

/// Opens the store through the layer calls, warms the readers, runs the
/// window with the traced writer (spans on every commit and on the
/// open), and checks the store on reopen. The readers run the layer
/// calls without spans.
TracedResult ServeTraced(const Fixture& fx, const std::string& dir,
                         double seconds, const SpanCost& cost,
                         const std::string& spans_path) {
  const WorkloadSpec& spec = *fx.spec;
  TracedResult out;
  SpanBuffer setup_spans(0, 1 << 12);
  SpanBuffer writer_spans(1, kWriterSpanCapacity);
  std::vector<std::unique_ptr<ReaderStats>> readers;
  for (size_t t = 0; t < spec.readers; ++t) {
    readers.push_back(std::make_unique<ReaderStats>());
  }
  out.log.latency_ms.reserve(4096);
  out.log.late_ms.reserve(4096);
  out.log.affected.reserve(4096);

  auto store = std::make_unique<TracedStore>();
  ++out.tally.attempted;
  PathCounts open_counts;
  if (!TracedOpen(*store, dir, &setup_spans, fx.queries.front(), open_counts)) {
    Die("traced open of " + dir + " failed");
  }
  const core::SnapshotManager& manager = store->manager;
  auto reader = [&](size_t t, const std::atomic<bool>& stop) {
    DecomposedReader(manager, Slice(fx, t), stop, *readers[t]);
  };
  RunReaders(spec.readers, kWarmupSeconds, reader);
  for (auto& r : readers) r->EndLoop();

  const CounterDeltas before = CounterSnapshot();
  const std::string wal_path = core::PersistentSystem::WalPath(dir);
  const uint64_t wal_before = FileSize(wal_path);
  auto commit = [&](const Batch& batch, uint64_t req) {
    writer_spans.Prepare(16);
    return TracedCommit(*store, batch, &writer_spans, req, out.log);
  };
  RunWindow(spec, seconds, fx.plan, manager, reader, commit, out.log);
  out.counters = Delta(before, CounterSnapshot());
  out.wal_bytes = static_cast<double>(FileSize(wal_path) - wal_before);

  const std::string live_bytes =
      core::EncodeBinarySnapshot(*store->twin, store->wal->next_lsn() - 1);
  store->wal.reset();
  CheckReopen(dir, live_bytes, &out.tally);

  const std::vector<const SpanBuffer*> buffers = {&setup_spans, &writer_spans};
  out.analysis = Analyze(buffers, cost);
  if (!WriteSpans(buffers, spans_path)) {
    std::fprintf(stderr, "ucrbench: could not write %s\n", spans_path.c_str());
  }
  for (const auto& r : readers) {
    out.tally.Merge(r->tally);
    out.tally.attempted += r->decisions;
    out.tally.failed += r->failed;
  }
  out.tally.Merge(out.log.tally);
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> RunUntraced(const Fixture& fx, const RunOptions& run,
                                Tally* tally) {
  const WorkloadSpec& spec = *run.spec;
  ServeResult r = Serve(fx, fx.store_dir, run.seconds, spec.setup_opens);
  tally->Merge(r.tally);
  PrintCounters("window", r.counters);
  PrintWriter("window", spec, r.log);
  std::vector<double> latency_us = r.CheckLatencyUs();
  std::vector<double>& commit_ms = r.log.latency_ms;
  std::printf("samples setup=%zu check=%zu commit=%zu\n", r.open_s.size(),
              latency_us.size(), commit_ms.size());
  return {
      {"setup_s", Median(r.open_s), "s"},
      {"check_qps", r.CheckQps(), "1/s"},
      {"check_p50_us", BandQuantile(latency_us, 0.50), "us"},
      {"check_p99_us", BandQuantile(latency_us, 0.99), "us"},
      {"commit_p50_ms", CommitQuantile(commit_ms, 0.50), "ms"},
      {"commit_p90_ms", CommitQuantile(commit_ms, 0.90), "ms"},
      {"commit_per_s", Ratio(static_cast<double>(r.log.commits), r.log.elapsed_s),
       "1/s"},
      {"rss_peak_mb", r.rss_peak_mib, "MiB"},
  };
}

std::vector<Metric> RunTraced(const Fixture& fx, const RunOptions& run,
                              Tally* tally) {
  const WorkloadSpec& spec = *run.spec;
  const SpanCost cost = CalibrateSpanCost();
  const double half = run.seconds / 2.0;

  // Serving half, on its own copy of the pristine store: the production
  // calls, with traced reads interleaved among the timed ones.
  const std::string serving_dir = run.work_dir + "/store-serving";
  CopyStore(fx.store_dir, serving_dir);
  const ReadTracing tracing{cost, run.work_dir + "/spans-" + spec.name + "-reads.tsv"};
  ServeResult u = Serve(fx, serving_dir, half, 1, &tracing);
  RemoveStore(serving_dir);
  tally->Merge(u.tally);
  PrintCounters("serving", u.counters);
  PrintWriter("serving", spec, u.log);

  // Traced-writer half: the store opened and written through the layer
  // calls.
  const std::string traced_dir = run.work_dir + "/store-traced";
  CopyStore(fx.store_dir, traced_dir);
  TracedResult t = ServeTraced(fx, traced_dir, half, cost,
                               run.work_dir + "/spans-" + spec.name + "-writes.tsv");
  RemoveStore(traced_dir);
  tally->Merge(t.tally);
  PrintCounters("traced_writer", t.counters);
  PrintWriter("traced_writer", spec, t.log);
  std::vector<double> u_latency_us = u.CheckLatencyUs();
  const double u_check_p50_ns = BandQuantile(u_latency_us, 0.5) * 1e3;
  const double u_commit_p50_ms = CommitQuantile(u.log.latency_ms, 0.5);
  const TraceAnalysis& r = u.analysis;  // Reads: serving half.
  const TraceAnalysis& w = t.analysis;  // Commits and the open: traced-writer half.
  std::printf("trace spans=%llu dropped=%llu span_cost_inner_ns=%.2f "
              "span_cost_outer_ns=%.2f\n",
              static_cast<unsigned long long>(r.spans + w.spans),
              static_cast<unsigned long long>(r.dropped + w.dropped),
              cost.inner_ns, cost.outer_ns);

  auto self_median = [&](const TraceAnalysis& a, Layer root, Layer layer) {
    return SpanMedian(a.self_ns[root][layer]);
  };
  uint64_t hits = 0, misses = 0, composed = 0;
  std::vector<double> entries, nodes;
  for (const auto& reader : u.readers) {
    hits += reader->path.hits;
    misses += reader->path.misses;
    composed += reader->path.composed;
    entries.insert(entries.end(), reader->path.compose_entries.begin(),
                   reader->path.compose_entries.end());
    nodes.insert(nodes.end(), reader->subgraph_nodes.begin(),
                 reader->subgraph_nodes.end());
  }
  std::vector<double> extract = r.self_ns[kProbe][kExtract];
  extract.insert(extract.end(), r.self_ns[kCheck][kExtract].begin(),
                 r.self_ns[kCheck][kExtract].end());
  std::vector<double> propagate = r.self_ns[kProbe][kPropagate];
  propagate.insert(propagate.end(), r.self_ns[kCheck][kPropagate].begin(),
                   r.self_ns[kCheck][kPropagate].end());

  // Reconciliation: the blocking steps' self times against the
  // untraced median (both net of the calibrated clock-read cost). Traced
  // and timed reads interleave on the same system; commits come from the
  // two halves.
  const double check_ref_ns = std::max(1.0, u_check_p50_ns - cost.inner_ns);
  const double check_sum_ns = Median(r.blocking_ns[kCheck]);
  const double check_err = (check_sum_ns - check_ref_ns) / check_ref_ns;
  const double check_overhead_ns = Median(r.root_ns[kCheck]) - u_check_p50_ns;
  const double commit_sum_ms = CommitQuantile(w.blocking_ns[kCommit], 0.5) / 1e6;
  const double commit_err = Ratio(commit_sum_ms - u_commit_p50_ms, u_commit_p50_ms);
  const double commit_overhead_ms =
      CommitQuantile(w.root_ns[kCommit], 0.5) / 1e6 - u_commit_p50_ms;
  // The workload's reconciled medians are output checks: one outside
  // its tolerance fails the run. The others are printed for reference.
  auto reconcile = [&](const char* metric, bool gated, double err,
                       double tolerance) -> const char* {
    if (!gated) return "not checked";
    ++tally->attempted;
    if (std::fabs(err) <= tolerance) return "PASS";
    ++tally->failed;
    std::fprintf(stderr, "ucrbench: reconciliation of %s failed\n", metric);
    return "FAIL";
  };
  std::printf("reconcile check_p50: untraced %.4f us, blocking steps %.4f us, "
              "error %+.1f%% (tolerance %.0f%%) %s\n",
              check_ref_ns / 1e3, check_sum_ns / 1e3, check_err * 100,
              kCheckTolerance * 100,
              reconcile("check_p50_us", spec.reconcile_check, check_err,
                        kCheckTolerance));
  std::printf("reconcile commit_p50: untraced %.4f ms, blocking steps %.4f ms, "
              "error %+.1f%% (tolerance %.0f%%) %s\n",
              u_commit_p50_ms, commit_sum_ms, commit_err * 100,
              kCommitTolerance * 100,
              reconcile("commit_p50_ms", spec.reconcile_commit, commit_err,
                        kCommitTolerance));
  std::printf("overhead check %.1f ns, commit %.4f ms (traced minus untraced "
              "medians)\n",
              check_overhead_ns, commit_overhead_ms);

  std::vector<Metric> metrics = {
      {"snapshot.pin_ns", self_median(r, kCheck, kPin), "ns"},
      {"snapshot.lookup_ns", self_median(r, kCheck, kLookup), "ns"},
      {"snapshot.hit_ratio",
       Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio"},
      {"resolve.indexed_share",
       Ratio(static_cast<double>(composed), static_cast<double>(misses)), "ratio"},
      {"reachability.compose_ns", self_median(r, kCheck, kCompose), "ns"},
      {"reachability.compose_entries", SpanMedian(entries), "count"},
      {"ancestor_subgraph.extract_ns", SpanMedian(extract), "ns"},
      {"ancestor_subgraph.nodes", SpanMedian(nodes), "count"},
      {"flat_propagate.propagate_ns", SpanMedian(propagate), "ns"},
      {"resolve.decide_ns", self_median(r, kCheck, kDecide), "ns"},
      {"wal.append_ns", self_median(w, kCommit, kWalAppend), "ns"},
      {"wal.bytes_per_commit",
       Ratio(t.wal_bytes, static_cast<double>(t.log.commits)), "bytes"},
      {"wal.commit_ns", self_median(w, kCommit, kWalCommit), "ns"},
      {"system.apply_ns", self_median(w, kCommit, kApply), "ns"},
      {"system.affected_subjects", Mean(t.log.affected), "count"},
      {"reachability.rebuild_ns", self_median(w, kCommit, kRebuild), "ns"},
      {"snapshot.build_ns", self_median(w, kCommit, kBuild), "ns"},
      {"snapshot.carried_ratio", Ratio(t.log.carried, t.log.carried + t.log.dropped),
       "ratio"},
      {"snapshot.publish_ns", self_median(w, kCommit, kPublish), "ns"},
      {"binary_snapshot.load_ms", Median(w.self_ns[kOpen][kLoad]) / 1e6, "ms"},
      {"persistent_system.replay_ms", Median(w.total_ns[kOpen][kReplay]) / 1e6, "ms"},
      {"reachability.build_ms", Median(w.self_ns[kOpen][kReachBuild]) / 1e6, "ms"},
      {"trace.check_reconcile_err", std::fabs(check_err), "ratio"},
      {"trace.check_overhead_ns", check_overhead_ns, "ns"},
      {"trace.commit_reconcile_err", std::fabs(commit_err), "ratio"},
      {"trace.commit_overhead_ms", commit_overhead_ms, "ms"},
  };
  // The one per-layer figure only the library's own counters give.
  const auto count = t.counters.find("ucr_reach_rebuild_affected_nodes_count");
  const auto sum = t.counters.find("ucr_reach_rebuild_affected_nodes_sum");
  if (count != t.counters.end() && sum != t.counters.end()) {
    metrics.push_back({"reachability.rebuild_affected",
                       Ratio(sum->second, count->second), "count"});
  } else {
    std::printf("metric reachability.rebuild_affected absent (UCR_METRICS=OFF)\n");
  }
  return metrics;
}

}  // namespace ucrbench
