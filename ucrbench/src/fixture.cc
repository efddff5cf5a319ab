// Input generation: hierarchies, matrices, stores, query streams and
// commit plans, all derived from the run's seed before timing starts.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "acm/acm.h"
#include "core/persistent_system.h"
#include "graph/generators.h"
#include "ucrbench.h"
#include "util/random.h"
#include "workload/enterprise.h"
#include "workload/query_stream.h"

namespace ucrbench {

namespace {

using ucr::Random;
using ucr::acm::Mode;
using ucr::graph::NodeId;

constexpr WorkloadSpec kWorkloads[] = {
    // name, scale, readers, zipf_sinks, open_loop_rate, closed_loop_writer,
    // quiet_commits, setup_opens, wal_tail_batches, reconcile_check,
    // reconcile_commit
    {"read_hot", false, 3, true, 0.0, false, 150, 15, 0, true, false},
    {"mixed_uniform", false, 2, false, 6.0, false, 0, 15, 0, false, true},
    {"scale_write", true, 2, false, 0.0, true, 0, 5, 8, true, true},
};

/// Toggle pools hold this many edges / triples each; plans cycle
/// through them, so every element flips back and forth.
constexpr size_t kPool = 64;
/// The policy (hierarchy + explicit matrix) of every workload is drawn
/// from this constant, so runs with different seeds measure one and the
/// same system; the run's seed draws the requests made of it (query
/// streams, toggled edges and triples, the WAL tail). Policies drawn per
/// seed moved scale_write's commit p50 by up to 50 % between seeds.
constexpr uint64_t kPolicySeed = 2007;
/// Batches per plan: a multiple of every pool period (2 * kPool for
/// the paired plan, 4 * kPool for the alternating one), so cycling
/// through the plan replays a consistent history.
constexpr size_t kPlanBatches = 2048;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ucrbench: fixture: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(ucr::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().message());
  return std::move(value).value();
}

struct Edge {
  std::string parent;
  std::string child;
};

struct Triple {
  std::string subject;
  std::string object;
  std::string right;
};

/// `count` membership edges into distinct sinks drawn from
/// `candidates` (each sink keeps its first parent as the toggled one).
std::vector<Edge> PickSinkEdges(const ucr::graph::Dag& dag,
                                std::vector<NodeId> candidates, Random& rng) {
  std::erase_if(candidates,
                [&](NodeId v) { return dag.parents(v).empty(); });
  if (candidates.size() < kPool) Die("too few sinks with a parent");
  std::vector<Edge> edges;
  for (const size_t i : rng.SampleWithoutReplacement(candidates.size(), kPool)) {
    const NodeId child = candidates[i];
    edges.push_back({dag.name(dag.parents(child).front()), dag.name(child)});
  }
  return edges;
}

/// `count` distinct triples over `subjects` that hold no explicit
/// entry, so a grant on them always succeeds.
std::vector<Triple> PickEmptyTriples(const ucr::graph::Dag& dag,
                                     const ucr::acm::ExplicitAcm& eacm,
                                     const std::vector<NodeId>& subjects,
                                     Random& rng) {
  std::vector<Triple> triples;
  std::vector<uint64_t> used;
  while (triples.size() < kPool) {
    const NodeId s = subjects[rng.Uniform(subjects.size())];
    const auto o = static_cast<ucr::acm::ObjectId>(
        rng.Uniform(eacm.object_count()));
    const auto r =
        static_cast<ucr::acm::RightId>(rng.Uniform(eacm.right_count()));
    const uint64_t key = (uint64_t{s} << 32) | (uint64_t{o} << 16) | r;
    if (eacm.Get(s, o, r).has_value() ||
        std::find(used.begin(), used.end(), key) != used.end()) {
      continue;
    }
    used.push_back(key);
    triples.push_back({dag.name(s), eacm.object_name(o), eacm.right_name(r)});
  }
  return triples;
}

/// Flips one pool element: remove-if-present / add-if-absent.
MutationOp ToggleEdge(const Edge& e, std::vector<bool>& present, size_t i) {
  present[i] = !present[i];
  return present[i] ? MutationOp::AddMember(e.parent, e.child)
                    : MutationOp::RemoveMember(e.parent, e.child);
}

MutationOp ToggleGrant(const Triple& t, std::vector<bool>& granted, size_t i) {
  granted[i] = !granted[i];
  return granted[i] ? MutationOp::Grant(t.subject, t.object, t.right)
                    : MutationOp::Revoke(t.subject, t.object, t.right);
}

/// The enterprise plan: every batch pairs one sink-membership toggle
/// with one grant/revoke toggle.
std::vector<Batch> PairedPlan(const std::vector<Edge>& edges,
                              const std::vector<Triple>& triples,
                              size_t batches) {
  std::vector<bool> present(edges.size(), true);
  std::vector<bool> granted(triples.size(), false);
  std::vector<Batch> plan;
  for (size_t i = 0; i < batches; ++i) {
    plan.push_back({ToggleEdge(edges[i % kPool], present, i % kPool),
                    ToggleGrant(triples[i % kPool], granted, i % kPool)});
  }
  return plan;
}

/// The scale plan: single-op batches alternating a sink-membership
/// toggle and a grant/revoke toggle on a layer-1 subject.
std::vector<Batch> AlternatingPlan(const std::vector<Edge>& edges,
                                   const std::vector<Triple>& triples,
                                   size_t batches) {
  std::vector<bool> present(edges.size(), true);
  std::vector<bool> granted(triples.size(), false);
  std::vector<Batch> plan;
  for (size_t i = 0; i < batches; ++i) {
    const size_t j = (i / 2) % kPool;
    plan.push_back({i % 2 == 0 ? ToggleEdge(edges[j], present, j)
                               : ToggleGrant(triples[j], granted, j)});
  }
  return plan;
}

struct Policy {
  ucr::graph::Dag dag;
  ucr::acm::ExplicitAcm eacm;
  std::vector<Batch> plan;  ///< Including the WAL-tail prefix.
};

/// The Livelink-shaped enterprise hierarchy (8,082 subjects, ~22k
/// memberships) with 8 objects x 3 rights at ~1 % explicit density.
Policy EnterprisePolicy(Random& rng, Random& requests, size_t batches) {
  ucr::workload::EnterpriseOptions shape;  // Defaults: the published shape.
  Policy p{Must(ucr::workload::GenerateEnterpriseHierarchy(shape, rng),
                "enterprise hierarchy"),
           {},
           {}};
  const char* objects[] = {"vault", "wiki",  "payroll", "crm",
                           "hr",    "build", "docs",    "mail"};
  const char* rights[] = {"read", "write", "admin"};
  for (const char* o : objects) Must(p.eacm.InternObject(o), "object");
  for (const char* r : rights) Must(p.eacm.InternRight(r), "right");
  for (ucr::acm::ObjectId o = 0; o < p.eacm.object_count(); ++o) {
    for (ucr::acm::RightId r = 0; r < p.eacm.right_count(); ++r) {
      for (NodeId v = 0; v < p.dag.node_count(); ++v) {
        if (!rng.Bernoulli(0.01)) continue;
        const Mode mode = rng.Bernoulli(0.3) ? Mode::kNegative : Mode::kPositive;
        if (!p.eacm.Set(v, o, r, mode).ok()) Die("explicit entry");
      }
    }
  }
  std::vector<NodeId> all(p.dag.node_count());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  const std::vector<Edge> edges = PickSinkEdges(p.dag, p.dag.Sinks(), requests);
  const std::vector<Triple> triples =
      PickEmptyTriples(p.dag, p.eacm, all, requests);
  p.plan = PairedPlan(edges, triples, batches);
  return p;
}

/// A 2^18-subject `GenerateScaleLayeredDag` hierarchy (24 layers, 2
/// parents per node), labelled as in bench/reach_scale: role templates
/// on 30 % of layer 0 and 2 % of layer 1, nothing below.
Policy ScalePolicy(Random& rng, Random& requests, size_t batches) {
  ucr::graph::ScaleLayeredDagOptions shape;
  shape.nodes = size_t{1} << 18;
  shape.layers = 24;
  shape.parents_per_node = 2;
  Policy p{Must(ucr::graph::GenerateScaleLayeredDag(shape, rng), "scale dag"),
           {},
           {}};
  const auto doc = Must(p.eacm.InternObject("doc"), "object");
  const auto vault = Must(p.eacm.InternObject("vault"), "object");
  const auto read = Must(p.eacm.InternRight("read"), "right");
  const auto write = Must(p.eacm.InternRight("write"), "right");
  struct Entry {
    ucr::acm::ObjectId object;
    ucr::acm::RightId right;
    Mode mode;
  };
  const std::vector<std::vector<Entry>> templates = {
      {{doc, read, Mode::kPositive}},
      {{doc, read, Mode::kNegative}},
      {{doc, read, Mode::kPositive}, {doc, write, Mode::kPositive}},
      {{doc, read, Mode::kNegative}, {vault, read, Mode::kNegative}},
  };
  const size_t n = p.dag.node_count();
  const size_t layer0_end = n / shape.layers;
  const size_t layer1_end = 2 * n / shape.layers;
  for (NodeId v = 0; v < layer1_end; ++v) {
    if (!rng.Bernoulli(v < layer0_end ? 0.3 : 0.02)) continue;
    for (const Entry& e : templates[rng.Uniform(templates.size())]) {
      if (!p.eacm.Set(v, e.object, e.right, e.mode).ok()) Die("template");
    }
  }
  std::vector<NodeId> last_layer;
  for (NodeId v = static_cast<NodeId>((shape.layers - 1) * n / shape.layers);
       v < n; ++v) {
    last_layer.push_back(v);
  }
  std::vector<NodeId> layer1;
  for (NodeId v = static_cast<NodeId>(layer0_end); v < layer1_end; ++v) {
    layer1.push_back(v);
  }
  const std::vector<Edge> edges = PickSinkEdges(p.dag, last_layer, requests);
  const std::vector<Triple> triples =
      PickEmptyTriples(p.dag, p.eacm, layer1, requests);
  p.plan = AlternatingPlan(edges, triples, batches);
  return p;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

ucr::core::SystemOptions ServingOptions() {
  ucr::core::SystemOptions options;
  options.enable_snapshot_reads = true;
  options.default_strategy = ucr::core::ParseStrategy("D+LP-").value();
  return options;
}

void CopyStore(const std::string& from, const std::string& to) {
  namespace fs = std::filesystem;
  RemoveStore(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    fs::copy_file(entry.path(), fs::path(to) / entry.path().filename());
  }
}

void RemoveStore(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

Fixture BuildFixture(const WorkloadSpec& spec, uint64_t seed,
                     const std::string& dir) {
  Random policy_rng(kPolicySeed);
  Random rng(seed);
  const size_t batches = spec.wal_tail_batches + kPlanBatches;
  Policy policy = spec.scale ? ScalePolicy(policy_rng, rng, batches)
                             : EnterprisePolicy(policy_rng, rng, batches);

  Fixture fx;
  fx.spec = &spec;
  fx.subjects = policy.dag.node_count();
  fx.memberships = policy.dag.edge_count();
  fx.explicit_entries = policy.eacm.size();

  // One stream for all readers, so Zipf ranks (a shuffle seeded from
  // the stream seed) are shared; each reader takes its own slice.
  fx.stream_len = spec.scale ? size_t{1} << 22 : size_t{1} << 20;
  ucr::workload::QueryStreamOptions qs;
  qs.count = fx.stream_len * spec.readers;
  qs.distribution = spec.zipf_sinks ? ucr::workload::SubjectDistribution::kZipf
                                    : ucr::workload::SubjectDistribution::kUniform;
  qs.zipf_exponent = 1.0;
  qs.sinks_only = spec.zipf_sinks;
  qs.seed = rng.NextU64();
  fx.queries = Must(
      ucr::workload::GenerateQueryStream(policy.dag, policy.eacm, qs),
      "query stream");

  // Seed the store through the (Dag, ExplicitAcm) constructor; see
  // NOTES.md for why the text loader is avoided.
  fx.store_dir = dir + "/store";
  RemoveStore(fx.store_dir);
  ucr::core::SystemOptions options = ServingOptions();
  options.enable_snapshot_reads = false;
  {
    ucr::core::AccessControlSystem system(std::move(policy.dag),
                                          std::move(policy.eacm), options);
    const ucr::Status init =
        ucr::core::PersistentSystem::Initialize(fx.store_dir, system);
    if (!init.ok()) Die("initialize store: " + init.message());
  }
  if (spec.wal_tail_batches > 0) {
    auto store = Must(ucr::core::PersistentSystem::Open(fx.store_dir, options),
                      "open store for the WAL tail");
    for (size_t i = 0; i < spec.wal_tail_batches; ++i) {
      if (!store.Apply(policy.plan[i]).ok()) Die("WAL tail batch");
    }
  }
  fx.plan.assign(policy.plan.begin() +
                     static_cast<std::ptrdiff_t>(spec.wal_tail_batches),
                 policy.plan.end());
  return fx;
}

}  // namespace ucrbench
