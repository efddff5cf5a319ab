// The reachability index's pending dirt stays bounded by the hierarchy,
// not by the number of edits (DESIGN.md §12). Every rights edit marks
// the edited subject's descendants dirty; a bulk load of root-layer
// grants used to append each root's whole subtree once per grant,
// growing memory as grants x subtree until the next query — a 2^20
// text load ran out of memory. Links `ucr_alloc_counter` to measure
// the bytes the load retains.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/resolve.h"
#include "core/storage.h"
#include "core/system.h"
#include "util/alloc_counter.h"

namespace ucr::core {
namespace {

constexpr size_t kRoots = 4;
constexpr size_t kGroupsPerRoot = 50;
constexpr size_t kUsersPerGroup = 100;
constexpr size_t kObjects = 750;  // Grants = kRoots * kObjects = 3000.
constexpr size_t kNodes =
    kRoots * (1 + kGroupsPerRoot * (1 + kUsersPerGroup));
constexpr size_t kEdges = kRoots * kGroupsPerRoot * (1 + kUsersPerGroup);
constexpr size_t kGrants = kRoots * kObjects;

/// A wide hierarchy (each root reaches ~5k subjects) in the system
/// text format, with `kObjects` grants on every root when
/// `with_grants`.
std::string WideSystemText(bool with_grants) {
  std::string text = "# ucr system v1\nstrategy D+LP-\n[hierarchy]\n";
  for (size_t r = 0; r < kRoots; ++r) {
    const std::string root = "root" + std::to_string(r);
    for (size_t g = 0; g < kGroupsPerRoot; ++g) {
      const std::string group = root + "g" + std::to_string(g);
      text += "edge " + root + " " + group + "\n";
      for (size_t u = 0; u < kUsersPerGroup; ++u) {
        text += "edge " + group + " " + group + "u" + std::to_string(u) + "\n";
      }
    }
  }
  text += "[authorizations]\n";
  if (with_grants) {
    for (size_t r = 0; r < kRoots; ++r) {
      for (size_t o = 0; o < kObjects; ++o) {
        text += "auth root" + std::to_string(r) + " doc" + std::to_string(o) +
                " read +\n";
      }
    }
  }
  return text;
}

/// What a loaded system may retain: a constant per subject, edge and
/// explicit authorization (names, CSR arrays, the matrix and its
/// indexes). Pending dirt proportional to grants x subtree breaks it
/// by more than an order of magnitude.
constexpr int64_t kRetainedBound = 256 * (kNodes + kEdges + kGrants);

// Text load: no index exists until the first query, so the per-grant
// replay must record no dirt at all.
TEST(ReachDirtBoundTest, TextLoadOfRootGrantsRetainsLinearMemory) {
  const std::string text = WideSystemText(/*with_grants=*/true);
  const int64_t before = LiveHeapBytes();
  auto system = LoadSystemFromText(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const int64_t retained = LiveHeapBytes() - before;
  ASSERT_EQ(system->dag().node_count(), kNodes);
  ASSERT_EQ(system->eacm().size(), kGrants);
  EXPECT_LT(retained, kRetainedBound) << "retained " << retained << " bytes";

  // The first query builds the index over all of it.
  const graph::NodeId user = system->dag().FindNode("root3g49u99");
  const acm::ObjectId o = system->eacm().FindObject("doc0").value();
  const acm::RightId r = system->eacm().FindRight("read").value();
  EXPECT_EQ(system->CheckAccess(user, o, r, system->strategy()).value(),
            acm::Mode::kPositive);
}

// The same grants applied after a query has built the index: the dirt
// is needed now, and stays O(n) through compaction.
TEST(ReachDirtBoundTest, GrantsAfterIndexBuildRetainLinearMemory) {
  auto system = LoadSystemFromText(WideSystemText(/*with_grants=*/false));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE(system->Grant("root0", "seed", "read").ok());
  const graph::NodeId user = system->dag().FindNode("root0g0u0");
  const acm::ObjectId seed = system->eacm().FindObject("seed").value();
  const acm::RightId r = system->eacm().FindRight("read").value();
  ASSERT_EQ(system->CheckAccess(user, seed, r, system->strategy()).value(),
            acm::Mode::kPositive);
  const graph::ReachabilityIndex* index = system->reachability_index();
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->ready());

  const int64_t before = LiveHeapBytes();
  for (size_t root = 0; root < kRoots; ++root) {
    for (size_t o = 0; o < kObjects; ++o) {
      ASSERT_TRUE(system
                      ->Grant("root" + std::to_string(root),
                              "doc" + std::to_string(o), "read")
                      .ok());
    }
  }
  const int64_t retained = LiveHeapBytes() - before;
  EXPECT_LT(retained, kRetainedBound) << "retained " << retained << " bytes";

  // The compacted dirt still drives a correct incremental rebuild.
  ResolveAccessOptions classic;
  classic.use_fast_path = false;
  for (const char* name : {"root0g0u0", "root2g17u42", "root3g49u99"}) {
    const graph::NodeId v = system->dag().FindNode(name);
    for (const char* object : {"doc0", "doc749", "seed"}) {
      const acm::ObjectId o = system->eacm().FindObject(object).value();
      const auto want = ResolveAccess(system->dag(), system->eacm(), v, o, r,
                                      system->strategy(), classic);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(system->CheckAccess(v, o, r, system->strategy()).value(),
                *want)
          << name << " " << object;
    }
  }
  ASSERT_TRUE(system->reachability_index()->ready());
}

}  // namespace
}  // namespace ucr::core
