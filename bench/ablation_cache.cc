// Ablation A2 — the paper's future-work #1: caching derived
// authorizations.
//
// Replays a skewed query workload (Zipf-ish: a few hot users dominate,
// as in real systems) against a pinned snapshot with its epoch tables
// off, with only the sub-graph table, and with both tables, and
// injects explicit-matrix updates: each one publishes the next
// snapshot, which drops the edited column's entries and carries every
// other entry over. Queries and publications are timed apart: the
// tables are a read-side memo, and each publication re-extracts the
// warm sub-graphs into the new epoch, so its cost is reported next to
// the query speedup. The reachability index is off, so the tables are
// measured against the classic extraction they memoize.

#include <cstdio>
#include <iostream>
#include <vector>

#include "acm/assignment.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/enterprise.h"

#include "bench_obs.h"

namespace {

using namespace ucr;  // NOLINT(build/namespaces): benchmark brevity.

struct WorkloadSpec {
  std::vector<graph::NodeId> query_subjects;  // One per query, skewed.
  std::vector<size_t> update_points;          // Query indices with updates.
};

core::AccessControlSystem MakeSystem(uint64_t seed) {
  Random rng(seed);
  workload::EnterpriseOptions shape;
  shape.individuals = 400;
  shape.groups = 1300;
  shape.top_level_groups = 15;
  shape.target_edges = 4400;
  auto dag = workload::GenerateEnterpriseHierarchy(shape, rng);
  if (!dag.ok()) std::abort();

  core::SystemOptions options;
  options.enable_snapshot_reads = true;
  options.use_reachability_index = false;
  core::AccessControlSystem system(std::move(dag).value(), options);
  acm::ExplicitAcm seed_acm;
  const acm::ObjectId obj = seed_acm.InternObject("vault").value();
  const acm::RightId open = seed_acm.InternRight("open").value();
  acm::RandomAssignmentOptions assign;
  assign.authorization_rate = 0.01;
  if (!acm::AssignRandomAuthorizations(system.dag(), obj, open, assign, rng,
                                       &seed_acm)
           .ok()) {
    std::abort();
  }
  for (const auto& e : seed_acm.SortedEntries()) {
    const std::string& name = system.dag().name(e.subject);
    const Status s = e.mode == acm::Mode::kPositive
                         ? system.Grant(name, "vault", "open")
                         : system.DenyAccess(name, "vault", "open");
    if (!s.ok()) std::abort();
  }
  return system;
}

WorkloadSpec MakeWorkload(const graph::Dag& dag, size_t queries,
                          uint64_t seed) {
  Random rng(seed);
  const std::vector<graph::NodeId> sinks = dag.Sinks();
  // 80% of queries hit a hot set of 16 users; 20% are uniform.
  std::vector<graph::NodeId> hot;
  for (size_t i = 0; i < 16; ++i) {
    hot.push_back(sinks[rng.Uniform(sinks.size())]);
  }
  WorkloadSpec spec;
  for (size_t q = 0; q < queries; ++q) {
    spec.query_subjects.push_back(rng.Bernoulli(0.8)
                                      ? hot[rng.Uniform(hot.size())]
                                      : sinks[rng.Uniform(sinks.size())]);
    if (q > 0 && q % 1000 == 0) spec.update_points.push_back(q);
  }
  return spec;
}

struct RunResult {
  double query_ms = 0.0;
  double update_ms = 0.0;
};

RunResult RunWorkload(core::AccessControlSystem& system,
                      const WorkloadSpec& spec,
                      const core::SnapshotReadOptions& read_options) {
  const acm::ObjectId obj = system.eacm().FindObject("vault").value();
  const acm::RightId open = system.eacm().FindRight("open").value();
  const core::Strategy strategy = core::ParseStrategy("D+LP-").value();

  size_t next_update = 0;
  RunResult result;
  Stopwatch watch;
  core::SnapshotManager::ReadPin pin = system.snapshots()->Pin();
  for (size_t q = 0; q < spec.query_subjects.size(); ++q) {
    if (next_update < spec.update_points.size() &&
        spec.update_points[next_update] == q) {
      // An administrative change publishes the next epoch; its column
      // epoch drops the derived results it touched.
      const std::string subject = system.dag().name(
          spec.query_subjects[q] % 7 == 0 ? spec.query_subjects[q]
                                          : spec.query_subjects[0]);
      result.query_ms += watch.ElapsedMillis();
      watch.Reset();
      pin = {};
      (void)system.Grant(subject, "vault", "open");
      pin = system.snapshots()->Pin();
      result.update_ms += watch.ElapsedMillis();
      watch.Reset();
      ++next_update;
    }
    auto decision = core::SnapshotResolveAccess(
        *pin, spec.query_subjects[q], obj, open, strategy, read_options);
    if (!decision.ok()) std::abort();
  }
  result.query_ms += watch.ElapsedMillis();
  return result;
}

}  // namespace

int main() {
  constexpr size_t kQueries = 20000;
  constexpr uint64_t kSeed = 99;

  std::cout << "== Ablation: snapshot resolution & sub-graph tables (paper "
               "§6, future work #1) ==\n"
            << kQueries << " skewed queries, strategy D+LP-, one policy "
            << "update per 1000 queries\n\n";

  struct Config {
    const char* name;
    bool resolution;
    bool subgraph;
  };
  const Config configs[] = {
      {"no tables", false, false},
      {"sub-graph table only", false, true},
      {"both tables", true, true},
  };
  obs::Counter& hits = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_hits_total", "");
  obs::Counter& misses = obs::Registry::Global().GetCounter(
      "ucr_snapshot_resolution_misses_total", "");

  TablePrinter table({"configuration", "query ms", "us/query", "hit rate",
                      "speedup", "ms/update"});
  double baseline_ms = 0.0;
  for (const Config& config : configs) {
    core::SnapshotReadOptions read_options;
    read_options.use_resolution_table = config.resolution;
    read_options.use_subgraph_table = config.subgraph;
    core::AccessControlSystem system = MakeSystem(kSeed);
    const WorkloadSpec spec = MakeWorkload(system.dag(), kQueries, kSeed + 1);
    const uint64_t hits_before = hits.Value();
    const uint64_t misses_before = misses.Value();
    const RunResult run = RunWorkload(system, spec, read_options);
    const double ms = run.query_ms;
    if (baseline_ms == 0.0) baseline_ms = ms;

    // Table hits as counted by the snapshot metric family; "-" when
    // the table is off or instrumentation is compiled out.
    const uint64_t hit_count = hits.Value() - hits_before;
    const uint64_t lookups = hit_count + misses.Value() - misses_before;
    table.AddRow(
        {config.name, FormatDouble(ms, 1),
         FormatDouble(ms * 1000.0 / static_cast<double>(kQueries), 2),
         lookups == 0 ? std::string("-")
                      : FormatDouble(100.0 * static_cast<double>(hit_count) /
                                         static_cast<double>(lookups),
                                     1) +
                            "%",
         FormatDouble(baseline_ms / ms, 1) + "x",
         FormatDouble(run.update_ms /
                          static_cast<double>(spec.update_points.size()),
                      2)});
  }
  table.Print(std::cout);

  std::cout << "\nThe resolution table turns repeat decisions into "
               "lock-free hash probes; an update\ncosts one snapshot "
               "publication, after which only the edited column's "
               "entries\nre-derive — supporting the paper's conjecture that "
               "caching derived\nauthorizations pays off.\n";
  ucr::bench_obs::EmitMetricsSnapshot("ablation_cache");
  return 0;
}
