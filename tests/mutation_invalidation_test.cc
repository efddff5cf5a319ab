// The write path's affected sets (DESIGN.md §10): a hierarchy edit
// reports exactly the subjects whose ancestor sets it changed, queries
// after it never see stale state, the batched ApplyMutations path
// coalesces its edits, and the write-path observability (mutation
// counters, audit events carrying affected-set size) records them.
// Snapshot carry-over scoped to the affected set is covered by
// snapshot_differential_test.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/paper_example.h"
#include "core/system.h"
#include "graph/dag.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"

namespace ucr::core {
namespace {

using acm::Mode;

Strategy S(const char* mnemonic) { return ParseStrategy(mnemonic).value(); }

/// The paper's Fig. 1 fixture wrapped in a system (same labels the
/// system_test suite uses).
AccessControlSystem MakePaperSystem(SystemOptions options = {}) {
  PaperExample ex = MakePaperExample();
  AccessControlSystem system(std::move(ex.dag), options);
  EXPECT_TRUE(system.Grant("S2", "obj", "read").ok());
  EXPECT_TRUE(system.Grant("S4", "obj", "read").ok());
  EXPECT_TRUE(system.DenyAccess("S5", "obj", "read").ok());
  return system;
}

TEST(MutationInvalidationTest, EditedSubjectIsReResolvedNotServedStale) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  // The pre-edit decision (denied via S5) builds the reachability
  // index the edit must then refresh.
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kNegative);
  // Detach User from S5's group: the denial no longer reaches User.
  ASSERT_TRUE(system.RemoveMembership("S5", "User").ok());
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);
  // And the reverse edit restores the denial — no stale index either
  // way.
  ASSERT_TRUE(system.AddMembership("S5", "User").ok());
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kNegative);
}

TEST(MutationInvalidationTest, ApplyMutationsCoalescesOneSweep) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  ASSERT_TRUE(system.CheckAccessByName("User", "obj", "read").ok());

  using Op = AccessControlSystem::MutationOp;
  const std::vector<Op> ops = {
      Op::Grant("S3", "obj", "write"),
      Op::AddMember("S2", "contractor"),
      Op::AddMember("S3", "contractor"),
      Op::RemoveMember("S5", "User"),
  };
  AccessControlSystem::MutationBatchStats stats;
  ASSERT_TRUE(system.ApplyMutations(ops, &stats).ok());
  EXPECT_EQ(stats.applied, ops.size());

  // The coalesced affected set: contractor (twice edited, reported
  // once) and User — ascending, unique.
  std::vector<graph::NodeId> expected = {
      system.dag().FindNode("contractor"), system.dag().FindNode("User")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(stats.affected, expected);

  // The batch's effects all landed.
  EXPECT_TRUE(system.dag().HasEdge(system.dag().FindNode("S2"),
                                   system.dag().FindNode("contractor")));
  EXPECT_EQ(system.CheckAccessByName("contractor", "obj", "read").value(),
            Mode::kPositive);  // Inherits S2's grant.
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);  // S5's denial detached.
}

TEST(MutationInvalidationTest, ApplyMutationsStopsAtFirstFailureButSweeps) {
  AccessControlSystem system = MakePaperSystem();
  system.SetStrategy(S("D+LP-"));
  // Resolve a decision that op #1 affects, to prove the aborted batch
  // still reaches the index.
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kNegative);

  using Op = AccessControlSystem::MutationOp;
  const std::vector<Op> ops = {
      Op::RemoveMember("S5", "User"),
      Op::AddMember("User", "User"),  // Self-loop: fails.
      Op::Grant("S3", "obj", "write"),  // Never reached.
  };
  AccessControlSystem::MutationBatchStats stats;
  const Status status = system.ApplyMutations(ops, &stats);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.affected,
            std::vector<graph::NodeId>{system.dag().FindNode("User")});
  // Op #1 stayed applied and its dirt reached the index: the query
  // reflects the new hierarchy, not the warm pre-batch decision.
  EXPECT_EQ(system.CheckAccessByName("User", "obj", "read").value(),
            Mode::kPositive);
  // Op #3 was never applied.
  EXPECT_FALSE(system.eacm().FindRight("write").ok());
}

// The partial-failure report names the failing position and kind —
// both in the stats (machine-readable resume point, and the boundary
// the WAL commit record persists) and in the status message itself.
TEST(MutationInvalidationTest, BatchFailureNamesIndexAndKind) {
  AccessControlSystem system = MakePaperSystem();
  using Op = AccessControlSystem::MutationOp;
  AccessControlSystem::MutationBatchStats stats;

  // Success: no failed index.
  const std::vector<Op> ok_ops = {Op::Grant("S3", "obj", "write")};
  ASSERT_TRUE(system.ApplyMutations(ok_ops, &stats).ok());
  EXPECT_EQ(stats.failed_index, AccessControlSystem::MutationBatchStats::kNone);

  // Failure at op 2: failed_index == applied, and the message carries
  // the index, the op kind, and the underlying cause.
  const std::vector<Op> ops = {
      Op::Grant("S3", "doc", "read"),
      Op::Deny("S4", "doc", "write"),
      Op::AddMember("S1", "S1"),  // Self-loop: fails.
      Op::Grant("S3", "doc", "own"),
  };
  const Status status = system.ApplyMutations(ops, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.failed_index, 2u);
  EXPECT_EQ(stats.failed_index, stats.applied);
  EXPECT_NE(status.message().find("op 2 (add_membership)"),
            std::string::npos);
  EXPECT_NE(status.message().find("self-loop"), std::string::npos);
}

#if UCR_METRICS_ENABLED

TEST(MutationInvalidationTest, WritePathMetricsAndAuditAffectedSize) {
  obs::Counter& mutations = obs::Registry::Global().GetCounter(
      "ucr_mutations_total",
      "Hierarchy mutations applied (membership edge inserts/removals)");
  const uint64_t mutations_before = mutations.Value();

  // Capture the audit stream around one membership edit.
  struct VectorSink : obs::AuditSink {
    explicit VectorSink(std::vector<std::string>* out) : out_(out) {}
    void Write(std::string_view line) override { out_->emplace_back(line); }
    std::vector<std::string>* out_;
  };
  std::vector<std::string> lines;
  obs::AuditLogOptions options;
  options.sinks.push_back(std::make_unique<VectorSink>(&lines));
  ASSERT_TRUE(obs::AuditLog::Global().Start(std::move(options)));

  AccessControlSystem system = MakePaperSystem();
  // S2 -> User exists; removing it affects User only (User is a sink),
  // so the audit event's value — the affected-set size — is 1.
  ASSERT_TRUE(system.RemoveMembership("S2", "User").ok());
  obs::AuditLog::Global().Stop();

  EXPECT_EQ(mutations.Value(), mutations_before + 1);
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("remove_member") == std::string::npos) continue;
    EXPECT_NE(line.find("S2 -> User"), std::string::npos) << line;
    EXPECT_NE(line.find("\"value\":1"), std::string::npos) << line;
    found = true;
  }
  EXPECT_TRUE(found) << "no remove_member audit event captured";
}

#endif  // UCR_METRICS_ENABLED

}  // namespace
}  // namespace ucr::core
