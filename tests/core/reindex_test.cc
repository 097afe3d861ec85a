// Data-consistency machinery: reindex scheduling policies, subtree reindex, sact.
#include <gtest/gtest.h>

#include "src/core/hac_file_system.h"

namespace hac {
namespace {

size_t LinkCount(HacFileSystem& fs, const std::string& dir) {
  auto entries = fs.ReadDir(dir);
  EXPECT_TRUE(entries.ok());
  return entries.ok() ? entries.value().size() : 0;
}

TEST(ReindexTest, ManualPolicyDefersEverything) {
  HacFileSystem fs;  // default: manual
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt", "fingerprint data").ok());
  EXPECT_EQ(LinkCount(fs, "/q"), 0u);
  ASSERT_TRUE(fs.Reindex().ok());
  EXPECT_EQ(LinkCount(fs, "/q"), 1u);
  EXPECT_EQ(fs.Stats().auto_reindexes, 0u);
}

TEST(ReindexTest, EveryNMutationsPolicyTriggers) {
  HacOptions opts;
  opts.sync_policy = SyncPolicy::EveryNMutations(5);
  HacFileSystem fs(opts);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fs.WriteFile("/d/f" + std::to_string(i) + ".txt",
                             "fingerprint item " + std::to_string(i))
                    .ok());
  }
  EXPECT_GE(fs.Stats().auto_reindexes, 1u);
  EXPECT_GE(LinkCount(fs, "/q"), 5u);
}

TEST(ReindexTest, IntervalPolicyTriggersOnVirtualTime) {
  HacOptions opts;
  opts.sync_policy = SyncPolicy::IntervalTicks(50);
  HacFileSystem fs(opts);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  // Each mutation advances the virtual clock; after enough ticks a reindex fires.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fs.WriteFile("/d/f" + std::to_string(i) + ".txt", "fingerprint").ok());
  }
  EXPECT_GE(fs.Stats().auto_reindexes, 1u);
}

TEST(ReindexTest, SubtreeReindexOnlyTouchesSubtree) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/mail").ok());
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs.WriteFile("/mail/m.eml", "fingerprint mail").ok());
  ASSERT_TRUE(fs.WriteFile("/docs/d.txt", "fingerprint doc").ok());
  // Only /mail is reindexed: the docs file stays unknown to the index.
  ASSERT_TRUE(fs.ReindexSubtree("/mail").ok());
  ASSERT_TRUE(fs.SSync("/q").ok());
  EXPECT_EQ(LinkCount(fs, "/q"), 1u);
  ASSERT_TRUE(fs.Reindex().ok());
  EXPECT_EQ(LinkCount(fs, "/q"), 2u);
}

TEST(ReindexTest, ReindexPurgesDeletedDocs) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  EXPECT_EQ(fs.index().Stats().documents, 1u);
  ASSERT_TRUE(fs.Unlink("/d/f.txt").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  EXPECT_EQ(fs.index().Stats().documents, 0u);
  EXPECT_GE(fs.Stats().docs_purged, 1u);
}

TEST(ReindexTest, TruncateMakesDocDirty) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  ASSERT_EQ(LinkCount(fs, "/q"), 1u);
  // Truncate to empty: after reindex the doc no longer matches.
  auto fd = fs.Open("/d/f.txt", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs.Close(fd.value()).ok());
  ASSERT_TRUE(fs.Reindex().ok());
  EXPECT_EQ(LinkCount(fs, "/q"), 0u);
}

TEST(SActTest, ReturnsMatchingLines) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt",
                           "first line about fingerprint\n"
                           "second line about cooking\n"
                           "third line fingerprint again\n")
                  .ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  auto lines = fs.SAct("/q/f.txt");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines.value(),
            (std::vector<std::string>{"first line about fingerprint",
                                      "third line fingerprint again"}));
}

TEST(SActTest, RespectsBooleanQuery) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt",
                           "fingerprint ridge alone\n"
                           "just cooking notes\n")
                  .ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint AND NOT murder").ok());
  auto lines = fs.SAct("/q/f.txt");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines.value(), std::vector<std::string>{"fingerprint ridge alone"});
}

TEST(SActTest, NotDirRefKeepsContentMatches) {
  // A line cannot be judged against dir(/ridge) from its text, so NOT dir(/ridge)
  // is unknown and the line's content decides.
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "fingerprint ridge\n").ok());
  ASSERT_TRUE(fs.WriteFile("/d/b.txt",
                           "fingerprint murder\n"
                           "just cooking notes\n")
                  .ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/ridge", "ridge").ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint AND NOT dir(/ridge)").ok());
  auto lines = fs.SAct("/q/b.txt");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines.value(), std::vector<std::string>{"fingerprint murder"});
}

TEST(SActTest, FailsOnSyntacticDirectory) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt", "x").ok());
  EXPECT_EQ(fs.SAct("/d/f.txt").code(), ErrorCode::kNotSemantic);
}

TEST(ProcessModelTest, DescriptorsArePerProcess) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/f", "hello").ok());
  auto fd0 = fs.Open("/f", kOpenRead);
  ASSERT_TRUE(fd0.ok());

  ProcessId p1 = fs.CreateProcess();
  ASSERT_TRUE(fs.SetCurrentProcess(p1).ok());
  // The descriptor from process 0 is invalid here.
  char buf[4];
  EXPECT_EQ(fs.Read(fd0.value(), buf, 4).code(), ErrorCode::kBadDescriptor);
  auto fd1 = fs.Open("/f", kOpenRead);
  ASSERT_TRUE(fd1.ok());
  EXPECT_EQ(fs.Read(fd1.value(), buf, 4).value(), 4u);
  ASSERT_TRUE(fs.Close(fd1.value()).ok());

  ASSERT_TRUE(fs.SetCurrentProcess(0).ok());
  EXPECT_EQ(fs.Read(fd0.value(), buf, 4).value(), 4u);
  ASSERT_TRUE(fs.Close(fd0.value()).ok());
  EXPECT_EQ(fs.SetCurrentProcess(99).code(), ErrorCode::kInvalidArgument);
}

TEST(ProcessModelTest, AttributeCacheSharedAcrossProcesses) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.WriteFile("/f", "hello").ok());
  ASSERT_TRUE(fs.StatPath("/f").ok());  // cache miss + fill
  uint64_t misses_before = fs.Stats().attr_cache_misses;
  ProcessId p1 = fs.CreateProcess();
  ASSERT_TRUE(fs.SetCurrentProcess(p1).ok());
  ASSERT_TRUE(fs.StatPath("/f").ok());  // hit, from the other process' fill
  EXPECT_EQ(fs.Stats().attr_cache_misses, misses_before);
  EXPECT_GE(fs.Stats().attr_cache_hits, 1u);
}

TEST(JournalTest, RecordsBookkeepingActions) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(fs.Unlink("/q/f.txt").ok());

  auto records = fs.journal().Decode();
  ASSERT_TRUE(records.ok());
  bool saw_dir = false;
  bool saw_file = false;
  bool saw_query = false;
  bool saw_link_removed = false;
  for (const JournalRecord& r : records.value()) {
    saw_dir |= r.op == JournalOp::kDirCreated && r.a == "/d";
    saw_file |= r.op == JournalOp::kFileRegistered && r.a == "/d/f.txt";
    saw_query |= r.op == JournalOp::kQuerySet && r.a == "/q" && r.b == "fingerprint";
    saw_link_removed |= r.op == JournalOp::kLinkRemoved && r.a == "f.txt";
  }
  EXPECT_TRUE(saw_dir);
  EXPECT_TRUE(saw_file);
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_link_removed);
  EXPECT_GT(fs.journal().SizeBytes(), 0u);
  EXPECT_EQ(fs.journal().RecordCount(), records.value().size());
}

TEST(SpaceAccountingTest, MetadataGrowsWithDirectoriesAndQueries) {
  HacFileSystem fs;
  size_t base = fs.MetadataSizeBytes();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs.Mkdir("/d" + std::to_string(i)).ok());
  }
  size_t with_dirs = fs.MetadataSizeBytes();
  EXPECT_GT(with_dirs, base);
  ASSERT_TRUE(fs.SetQuery("/d0", "fingerprint AND ridge").ok());
  EXPECT_GT(fs.MetadataSizeBytes(), with_dirs);
  // Populate the shared attribute cache so the per-process footprint is visible.
  ASSERT_TRUE(fs.StatPath("/d0").ok());
  EXPECT_GT(fs.SharedMemoryBytesPerProcess(), 0u);
}

}  // namespace
}  // namespace hac
