#include "src/core/attribute_cache.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/core/hac_file_system.h"

namespace hac {
namespace {

TEST(AttributeCacheTest, HitMissCounting) {
  AttributeCache cache;
  EXPECT_FALSE(cache.Get(1).has_value());
  Stat st;
  st.inode = 1;
  st.size = 42;
  cache.Put(1, st);
  auto hit = cache.Get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size, 42u);
  EXPECT_EQ(cache.EntryCount(), 1u);
}

TEST(AttributeCacheTest, InvalidateAndClear) {
  AttributeCache cache;
  Stat st;
  st.inode = 7;
  cache.Put(7, st);
  cache.Invalidate(7);
  EXPECT_FALSE(cache.Get(7).has_value());
  cache.Put(7, st);
  cache.Put(8, st);
  cache.Clear();
  EXPECT_EQ(cache.EntryCount(), 0u);
}

TEST(AttributeCacheTest, PutOverwrites) {
  AttributeCache cache;
  Stat st;
  st.size = 1;
  cache.Put(1, st);
  st.size = 2;
  cache.Put(1, st);
  EXPECT_EQ(cache.Get(1)->size, 2u);
  EXPECT_EQ(cache.EntryCount(), 1u);
}

// Integration: the HAC Stat path must serve cached attributes and invalidate on every
// mutation kind.
class HacAttrCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.WriteFile("/f", "abc").ok());
    ASSERT_TRUE(fs_.StatPath("/f").ok());  // warm the cache
  }
  uint64_t Hits() { return fs_.Stats().attr_cache_hits; }
  uint64_t Misses() { return fs_.Stats().attr_cache_misses; }
  HacFileSystem fs_;
};

TEST_F(HacAttrCacheTest, SecondStatHits) {
  uint64_t h = Hits();
  ASSERT_TRUE(fs_.StatPath("/f").ok());
  EXPECT_EQ(Hits(), h + 1);
}

TEST_F(HacAttrCacheTest, WriteInvalidates) {
  ASSERT_TRUE(fs_.AppendFile("/f", "more").ok());
  uint64_t m = Misses();
  auto st = fs_.StatPath("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(Misses(), m + 1);
  EXPECT_EQ(st.value().size, 7u);  // fresh, not the stale cached size
}

TEST_F(HacAttrCacheTest, TruncateInvalidates) {
  auto fd = fs_.Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_.Close(fd.value()).ok());
  EXPECT_EQ(fs_.StatPath("/f").value().size, 0u);
}

TEST_F(HacAttrCacheTest, StatOfSymlinkTargetSharesCacheEntry) {
  ASSERT_TRUE(fs_.Symlink("/f", "/l").ok());
  uint64_t h = Hits();
  ASSERT_TRUE(fs_.StatPath("/l").ok());  // resolves to /f's inode -> hit
  EXPECT_EQ(Hits(), h + 1);
}

// Directories are answered from the VFS inode, never the cache: every kind of
// mutation under a directory the facade already statted must show in its next Stat.
::testing::AssertionResult StatsAgree(HacFileSystem& fs, const std::string& dir) {
  auto facade = fs.StatPath(dir);
  auto vfs = fs.vfs().StatPath(dir);
  if (!facade.ok() || !vfs.ok()) {
    return ::testing::AssertionFailure() << "stat failed for " << dir;
  }
  const Stat& a = facade.value();
  const Stat& b = vfs.value();
  if (a != b) {
    return ::testing::AssertionFailure()
           << dir << ": facade size/mtime/nlink " << a.size << "/" << a.mtime << "/"
           << a.nlink << " vs vfs " << b.size << "/" << b.mtime << "/" << b.nlink;
  }
  return ::testing::AssertionSuccess();
}

TEST(HacDirStatTest, ParentStatTracksEveryMutation) {
  HacFileSystem fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/docs.txt", "alpha").ok());
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/s", "alpha").ok());
  struct Step {
    const char* name;
    std::string dir;  // the directory whose attributes the step changes
    std::function<Result<void>()> op;
  };
  const std::vector<Step> steps = {
      {"mkdir", "/d", [&] { return fs.Mkdir("/d/sub"); }},
      {"create", "/d", [&] { return fs.WriteFile("/d/f", "beta"); }},
      {"rename", "/d", [&] { return fs.Rename("/d/f", "/d/g"); }},
      {"unlink", "/d", [&] { return fs.Unlink("/d/g"); }},
      {"symlink", "/d", [&] { return fs.Symlink("/d/sub", "/d/ln"); }},
      {"setquery", "/s", [&] { return fs.SetQuery("/s", "gamma"); }},
      {"reindex", "/s",
       [&]() -> Result<void> {
         HAC_RETURN_IF_ERROR(fs.WriteFile("/g.txt", "gamma"));
         return fs.Reindex();
       }},
  };
  for (const Step& step : steps) {
    ASSERT_TRUE(fs.StatPath(step.dir).ok());  // the facade has seen the old state
    ASSERT_TRUE(step.op().ok()) << step.name;
    EXPECT_TRUE(StatsAgree(fs, step.dir)) << "after " << step.name;
    EXPECT_TRUE(StatsAgree(fs, "/")) << "after " << step.name;
  }
  EXPECT_EQ(fs.StatPath("/s").value().size, 1u);  // the reindexed transient link
}

}  // namespace
}  // namespace hac
