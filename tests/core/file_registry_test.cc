#include "src/core/file_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/support/rng.h"
#include "src/vfs/path.h"

namespace hac {
namespace {

TEST(FileRegistryTest, AddAndLookup) {
  FileRegistry r;
  DocId id = r.Add(100, "/a/f").value();
  EXPECT_EQ(r.FindByPath("/a/f").value(), id);
  EXPECT_EQ(r.FindByInode(100).value(), id);
  const FileRecord* rec = r.Get(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->alive);
  EXPECT_TRUE(rec->dirty);  // new files need indexing
  EXPECT_FALSE(rec->remote);
}

TEST(FileRegistryTest, IdsAreDense) {
  FileRegistry r;
  EXPECT_EQ(r.Add(1, "/a").value(), 0u);
  EXPECT_EQ(r.Add(2, "/b").value(), 1u);
  EXPECT_EQ(r.Add(3, "/c").value(), 2u);
}

TEST(FileRegistryTest, DuplicatePathRejected) {
  FileRegistry r;
  ASSERT_TRUE(r.Add(1, "/a").ok());
  EXPECT_EQ(r.Add(2, "/a").code(), ErrorCode::kAlreadyExists);
}

TEST(FileRegistryTest, UniverseTracksLiveness) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  DocId b = r.Add(2, "/b").value();
  EXPECT_EQ(r.Universe().ToIds(), (std::vector<uint32_t>{a, b}));
  ASSERT_TRUE(r.Deactivate(a).ok());
  EXPECT_EQ(r.Universe().ToIds(), std::vector<uint32_t>{b});
  EXPECT_EQ(r.LiveCount(), 1u);
  EXPECT_EQ(r.TotalRecords(), 2u);  // dead record retained
  EXPECT_EQ(r.FindByPath("/a").code(), ErrorCode::kNotFound);
  EXPECT_NE(r.Get(a), nullptr);  // still inspectable
  EXPECT_FALSE(r.Get(a)->alive);
}

TEST(FileRegistryTest, DeactivateTwiceFails) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  ASSERT_TRUE(r.Deactivate(a).ok());
  EXPECT_EQ(r.Deactivate(a).code(), ErrorCode::kNotFound);
}

TEST(FileRegistryTest, PathCanBeReusedAfterDeactivation) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  ASSERT_TRUE(r.Deactivate(a).ok());
  DocId a2 = r.Add(5, "/a").value();
  EXPECT_NE(a, a2);
  EXPECT_EQ(r.FindByPath("/a").value(), a2);
}

TEST(FileRegistryTest, SetPathMovesOneFile) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  ASSERT_TRUE(r.SetPath(a, "/moved").ok());
  EXPECT_EQ(r.FindByPath("/moved").value(), a);
  EXPECT_EQ(r.FindByPath("/a").code(), ErrorCode::kNotFound);
}

TEST(FileRegistryTest, RenameSubtreeMovesAllWithin) {
  FileRegistry r;
  DocId a = r.Add(1, "/d/a").value();
  DocId b = r.Add(2, "/d/sub/b").value();
  DocId c = r.Add(3, "/elsewhere/c").value();
  r.RenameSubtree("/d", "/moved");
  EXPECT_EQ(r.Get(a)->path, "/moved/a");
  EXPECT_EQ(r.Get(b)->path, "/moved/sub/b");
  EXPECT_EQ(r.Get(c)->path, "/elsewhere/c");
  EXPECT_EQ(r.FindByPath("/moved/sub/b").value(), b);
}

TEST(FileRegistryTest, FilesWithinAndDirectChildren) {
  FileRegistry r;
  DocId a = r.Add(1, "/d/a").value();
  DocId b = r.Add(2, "/d/sub/b").value();
  DocId c = r.Add(3, "/x/c").value();
  (void)c;
  EXPECT_EQ(r.FilesWithin("/d").ToIds(), (std::vector<uint32_t>{a, b}));
  EXPECT_EQ(r.DirectChildrenOf("/d").ToIds(), std::vector<uint32_t>{a});
  EXPECT_EQ(r.FilesWithin("/").Count(), 3u);
  EXPECT_TRUE(r.FilesWithin("/nothing").Empty());
}

TEST(FileRegistryTest, DirtyTracking) {
  FileRegistry r;
  DocId a = r.Add(1, "/a").value();
  DocId b = r.Add(2, "/b").value();
  r.ClearDirty(a);
  r.ClearDirty(b);
  EXPECT_TRUE(r.DirtyDocs().empty());
  ASSERT_TRUE(r.MarkDirty(a).ok());
  EXPECT_EQ(r.DirtyDocs(), std::vector<DocId>{a});
  // Deactivation re-dirties (the index must purge it).
  ASSERT_TRUE(r.Deactivate(b).ok());
  EXPECT_EQ(r.DirtyDocs(), (std::vector<DocId>{a, b}));
}

TEST(FileRegistryTest, RemoteIdempotentByKey) {
  FileRegistry r;
  DocId a = r.AddRemote(1, "/m/.remote/lib/doc1", "m/lib/doc1").value();
  DocId again = r.AddRemote(9, "/other/path", "m/lib/doc1").value();
  EXPECT_EQ(a, again);
  EXPECT_EQ(r.FindRemote("m/lib/doc1").value(), a);
  EXPECT_TRUE(r.Get(a)->remote);
  EXPECT_EQ(r.FindRemote("unknown").code(), ErrorCode::kNotFound);
}

using Ids = std::vector<uint32_t>;

// '-', '.' and ' ' sort below '/', and '0' just above it: each sibling's paths sit
// right next to "/d/..." in path order but must never fall inside its range.
class FileRegistryRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = r_.Add(1, "/d/a").value();
    deep_ = r_.Add(2, "/d/sub/b").value();
    d0_ = r_.Add(3, "/d0/c").value();
    dash_ = r_.Add(4, "/d-x/e").value();
    dot_ = r_.Add(5, "/d.x/f").value();
    space_ = r_.Add(6, "/d x/g").value();
    top_ = r_.Add(7, "/top").value();
    dd_ = r_.Add(8, "/dd").value();
  }
  FileRegistry r_;
  DocId a_, deep_, d0_, dash_, dot_, space_, top_, dd_;
};

TEST_F(FileRegistryRangeTest, SiblingPrefixesStayOutside) {
  EXPECT_EQ(r_.FilesWithin("/d").ToIds(), (Ids{a_, deep_}));
  EXPECT_EQ(r_.DirectChildrenOf("/d").ToIds(), Ids{a_});
  EXPECT_EQ(r_.DirectChildrenOf("/d/sub").ToIds(), Ids{deep_});
  EXPECT_EQ(r_.FilesWithin("/d/sub").ToIds(), Ids{deep_});
  EXPECT_EQ(r_.FilesWithin("/d0").ToIds(), Ids{d0_});
  EXPECT_EQ(r_.FilesWithin("/d-x").ToIds(), Ids{dash_});
  EXPECT_EQ(r_.FilesWithin("/d.x").ToIds(), Ids{dot_});
  EXPECT_EQ(r_.FilesWithin("/d x").ToIds(), Ids{space_});
  EXPECT_EQ(r_.DirectChildrenOf("/d x").ToIds(), Ids{space_});
  EXPECT_TRUE(r_.FilesWithin("/d/a").Empty());  // a file holds nothing
  EXPECT_TRUE(r_.FilesWithin("/d/su").Empty());
}

TEST_F(FileRegistryRangeTest, RootCoversEverythingButHoldsOnlyTopLevelFiles) {
  EXPECT_EQ(r_.FilesWithin("/"), r_.Universe());
  EXPECT_EQ(r_.FilesWithin("/").Count(), 8u);
  EXPECT_EQ(r_.DirectChildrenOf("/").ToIds(), (Ids{top_, dd_}));
}

TEST_F(FileRegistryRangeTest, DeactivateAndSetPathMoveFilesBetweenRanges) {
  ASSERT_TRUE(r_.Deactivate(a_).ok());
  EXPECT_EQ(r_.FilesWithin("/d").ToIds(), Ids{deep_});
  EXPECT_TRUE(r_.DirectChildrenOf("/d").Empty());
  ASSERT_TRUE(r_.SetPath(deep_, "/d-x/moved").ok());
  EXPECT_TRUE(r_.FilesWithin("/d").Empty());
  EXPECT_EQ(r_.FilesWithin("/d-x").ToIds(), (Ids{deep_, dash_}));
  EXPECT_EQ(r_.DirectChildrenOf("/d-x").ToIds(), (Ids{deep_, dash_}));
  EXPECT_TRUE(r_.FilesWithin("/d/sub").Empty());
}

TEST_F(FileRegistryRangeTest, RenameSubtreeOntoASiblingPrefixedName) {
  r_.RenameSubtree("/d", "/d.y");
  EXPECT_TRUE(r_.FilesWithin("/d").Empty());
  EXPECT_EQ(r_.FilesWithin("/d.y").ToIds(), (Ids{a_, deep_}));
  EXPECT_EQ(r_.Get(deep_)->path, "/d.y/sub/b");
  EXPECT_EQ(r_.FindByPath("/d.y/sub/b").value(), deep_);
  EXPECT_EQ(r_.FindByPath("/d/a").code(), ErrorCode::kNotFound);
  EXPECT_EQ(r_.FilesWithin("/d.x").ToIds(), Ids{dot_});  // the neighbour is untouched
  // And back underneath a name that prefixes others.
  r_.RenameSubtree("/d0", "/d/z");
  EXPECT_EQ(r_.FilesWithin("/d").ToIds(), Ids{d0_});
  EXPECT_EQ(r_.Get(d0_)->path, "/d/z/c");
  EXPECT_TRUE(r_.FilesWithin("/d0").Empty());
}

TEST_F(FileRegistryRangeTest, RestoredRegistryAnswersTheSame) {
  ASSERT_TRUE(r_.Deactivate(dot_).ok());
  FileRegistry restored;
  for (DocId id = 0; id < r_.TotalRecords(); ++id) {
    ASSERT_TRUE(restored.RestoreRecord(*r_.Get(id)).ok());
  }
  for (const char* dir : {"/", "/d", "/d/sub", "/d0", "/d-x", "/d.x", "/d x"}) {
    EXPECT_EQ(restored.FilesWithin(dir), r_.FilesWithin(dir)) << dir;
    EXPECT_EQ(restored.DirectChildrenOf(dir), r_.DirectChildrenOf(dir)) << dir;
  }
  EXPECT_EQ(restored.FindByPath("/d/sub/b").value(), deep_);
  EXPECT_EQ(restored.FindByPath("/d.x/f").code(), ErrorCode::kNotFound);
}

// The range scans must agree with a brute-force filter over every live record, for
// random path sets mutated by every registry operation.
TEST(FileRegistryTest, RangeScansMatchBruteForce) {
  const std::vector<std::string> components = {"d", "d0", "d-x", "d.x", "d x", "e"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    auto random_dir = [&] {
      std::string dir;
      const uint64_t depth = rng.NextBelow(4);  // 0 = the root
      for (uint64_t i = 0; i < depth; ++i) {
        dir += "/" + components[rng.NextBelow(components.size())];
      }
      return dir.empty() ? std::string("/") : dir;
    };
    // File names never double as directory components, so a file path is never the
    // prefix of another path, as in a real tree.
    auto random_file = [&] {
      return JoinPath(random_dir(), "f" + std::to_string(rng.NextBelow(4)));
    };
    FileRegistry r;
    InodeId next_inode = 1;
    for (int step = 0; step < 300; ++step) {
      const uint64_t op = rng.NextBelow(10);
      const Ids live = r.Universe().ToIds();
      if (op < 5 || live.empty()) {
        const std::string path = random_file();
        const bool taken = r.FindByPath(path).ok();
        auto added = r.Add(next_inode++, path);
        ASSERT_EQ(added.ok(), !taken) << path;
      } else if (op < 7) {
        ASSERT_TRUE(r.Deactivate(live[rng.NextBelow(live.size())]).ok());
      } else if (op < 9) {
        const std::string path = random_file();
        if (!r.FindByPath(path).ok()) {
          ASSERT_TRUE(r.SetPath(live[rng.NextBelow(live.size())], path).ok());
        }
      } else {
        const std::string from = random_dir();
        const std::string to = random_dir();
        // A directory rename needs a fresh target outside the moved subtree.
        if (from != "/" && to != "/" && !PathIsWithin(to, from) && !PathIsWithin(from, to) &&
            r.FilesWithin(to).Empty()) {
          r.RenameSubtree(from, to);
        }
      }
      for (int probe = 0; probe < 4; ++probe) {
        const std::string dir = random_dir();
        Bitmap within;
        Bitmap direct;
        for (DocId id = 0; id < r.TotalRecords(); ++id) {
          const FileRecord* rec = r.Get(id);
          if (!rec->alive) {
            continue;
          }
          ASSERT_EQ(r.FindByPath(rec->path).value(), id) << rec->path;
          if (PathIsWithin(rec->path, dir) && rec->path != dir) {
            within.Set(id);
          }
          if (DirName(rec->path) == dir) {
            direct.Set(id);
          }
        }
        ASSERT_EQ(r.FilesWithin(dir), within) << "seed " << seed << " dir " << dir;
        ASSERT_EQ(r.DirectChildrenOf(dir), direct) << "seed " << seed << " dir " << dir;
      }
    }
  }
}

}  // namespace
}  // namespace hac
