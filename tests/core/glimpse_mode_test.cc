// HacOptions::verify_results_with_content — the Glimpse two-level cost/semantics mode.
#include <gtest/gtest.h>

#include "src/core/hac_file_system.h"

namespace hac {
namespace {

HacOptions GlimpseMode() {
  HacOptions opts;
  opts.verify_results_with_content = true;
  return opts;
}

TEST(GlimpseModeTest, NormalResultsUnchanged) {
  HacFileSystem fs(GlimpseMode());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "fingerprint ridge").ok());
  ASSERT_TRUE(fs.WriteFile("/d/b.txt", "butter flour").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  EXPECT_EQ(fs.ReadDir("/fp").value().size(), 1u);
}

TEST(GlimpseModeTest, StaleIndexEntriesFilteredAtEvaluation) {
  HacFileSystem fs(GlimpseMode());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "fingerprint ridge").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  // Content changes, index is stale; verification re-checks the file itself, so the
  // semantic directory created NOW does not pick the file up.
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "now about sailing").ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  EXPECT_TRUE(fs.ReadDir("/fp").value().empty());
  // Default mode keeps the paper's deferred semantics for comparison.
  HacFileSystem lazy;
  ASSERT_TRUE(lazy.Mkdir("/d").ok());
  ASSERT_TRUE(lazy.WriteFile("/d/a.txt", "fingerprint ridge").ok());
  ASSERT_TRUE(lazy.Reindex().ok());
  ASSERT_TRUE(lazy.WriteFile("/d/a.txt", "now about sailing").ok());
  ASSERT_TRUE(lazy.SMkdir("/fp", "fingerprint").ok());
  EXPECT_EQ(lazy.ReadDir("/fp").value().size(), 1u);  // stale until reindex
}

TEST(GlimpseModeTest, DeletedFilesDangleOnlyUntilTheNextEvaluation) {
  // Deleting a file leaves links dangling (the paper's data-inconsistency window) —
  // but only until the affected directory is re-evaluated: ssync or reindex settles it.
  HacFileSystem fs(GlimpseMode());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  ASSERT_EQ(fs.ReadDir("/fp").value().size(), 1u);
  ASSERT_TRUE(fs.Unlink("/d/a.txt").ok());
  EXPECT_EQ(fs.ReadDir("/fp").value().size(), 1u);  // dangling, per the paper
  EXPECT_FALSE(fs.ReadFileToString("/fp/a.txt").ok());
  ASSERT_TRUE(fs.SSync("/fp").ok());
  EXPECT_TRUE(fs.ReadDir("/fp").value().empty());
}

TEST(GlimpseModeTest, NotDirRefSurvivesContentVerification) {
  // Verification re-checks file text, which cannot tell whether a file is in
  // /ridge: the dir() leaf must not reject b.txt, which the index kept.
  HacFileSystem fs(GlimpseMode());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "fingerprint ridge").ok());
  ASSERT_TRUE(fs.WriteFile("/d/b.txt", "fingerprint murder").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/ridge", "ridge").ok());
  ASSERT_EQ(fs.ReadDir("/ridge").value().size(), 1u);
  EXPECT_EQ(fs.Search("fingerprint AND NOT dir(/ridge)", "/d").value(),
            std::vector<std::string>{"/d/b.txt"});
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint AND NOT dir(/ridge)").ok());
  EXPECT_EQ(fs.ReadDir("/fp").value().size(), 1u);
}

TEST(GlimpseModeTest, ProhibitedAndPermanentStillRespected) {
  HacFileSystem fs(GlimpseMode());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a.txt", "fingerprint one").ok());
  ASSERT_TRUE(fs.WriteFile("/d/b.txt", "fingerprint two").ok());
  ASSERT_TRUE(fs.WriteFile("/d/c.txt", "unrelated").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/fp", "fingerprint").ok());
  ASSERT_TRUE(fs.Unlink("/fp/a.txt").ok());
  ASSERT_TRUE(fs.Symlink("/d/c.txt", "/fp/c.txt").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  auto classes = fs.GetLinkClasses("/fp").value();
  EXPECT_EQ(classes.transient.size(), 1u);   // b.txt
  EXPECT_EQ(classes.permanent.size(), 1u);   // c.txt
  EXPECT_EQ(classes.prohibited.size(), 1u);  // a.txt
}

}  // namespace
}  // namespace hac
