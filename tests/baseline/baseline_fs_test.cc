// The baseline layers must be semantically transparent: the same operation sequence
// must produce identical observable state through JadeFs, PseudoFs and the raw VFS.
#include <algorithm>
#include <gtest/gtest.h>

#include "src/baseline/jade_fs.h"
#include "src/baseline/pseudo_fs.h"
#include "src/support/rng.h"
#include "src/vfs/file_system.h"
#include "src/vfs/path.h"

namespace hac {
namespace {

enum class Layer { kRaw, kJade, kPseudo };

struct Stack {
  explicit Stack(Layer layer) {
    switch (layer) {
      case Layer::kRaw:
        fs = &backing;
        break;
      case Layer::kJade:
        jade = std::make_unique<JadeFs>(&backing);
        fs = jade.get();
        break;
      case Layer::kPseudo:
        pseudo = std::make_unique<PseudoFs>(&backing);
        fs = pseudo.get();
        break;
    }
  }
  FileSystem backing;
  std::unique_ptr<JadeFs> jade;
  std::unique_ptr<PseudoFs> pseudo;
  FsInterface* fs = nullptr;
};

class BaselineLayerTest : public ::testing::TestWithParam<Layer> {};

TEST_P(BaselineLayerTest, BasicLifecycle) {
  Stack s(GetParam());
  FsInterface& fs = *s.fs;
  ASSERT_TRUE(fs.MkdirAll("/a/b").ok());
  ASSERT_TRUE(fs.WriteFile("/a/b/f.txt", "hello layered world").ok());
  EXPECT_EQ(fs.ReadFileToString("/a/b/f.txt").value(), "hello layered world");
  EXPECT_EQ(fs.StatPath("/a/b/f.txt").value().size, 19u);
  ASSERT_TRUE(fs.Rename("/a/b/f.txt", "/a/g.txt").ok());
  EXPECT_EQ(fs.ReadFileToString("/a/g.txt").value(), "hello layered world");
  ASSERT_TRUE(fs.Symlink("/a/g.txt", "/a/l").ok());
  EXPECT_EQ(fs.ReadLink("/a/l").value(), "/a/g.txt");
  EXPECT_EQ(fs.StatPath("/a/l").value().type, NodeType::kFile);
  EXPECT_EQ(fs.LstatPath("/a/l").value().type, NodeType::kSymlink);
  ASSERT_TRUE(fs.Unlink("/a/l").ok());
  ASSERT_TRUE(fs.Unlink("/a/g.txt").ok());
  ASSERT_TRUE(fs.Rmdir("/a/b").ok());
  ASSERT_TRUE(fs.Rmdir("/a").ok());
  EXPECT_TRUE(fs.ReadDir("/").value().empty());
}

TEST_P(BaselineLayerTest, ErrorsPassThrough) {
  Stack s(GetParam());
  FsInterface& fs = *s.fs;
  EXPECT_EQ(fs.Open("/missing", kOpenRead).code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.Mkdir("/a/b").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_EQ(fs.Mkdir("/d").code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(fs.WriteFile("/d/f", "x").ok());
  EXPECT_EQ(fs.Rmdir("/d").code(), ErrorCode::kNotEmpty);
}

TEST_P(BaselineLayerTest, ReadDirMatchesRaw) {
  Stack s(GetParam());
  FsInterface& fs = *s.fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/a", "1").ok());
  ASSERT_TRUE(fs.WriteFile("/d/b", "22").ok());
  auto entries = fs.ReadDir("/d").value();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");
  EXPECT_EQ(entries[1].name, "b");
}

TEST_P(BaselineLayerTest, DescriptorSemantics) {
  Stack s(GetParam());
  FsInterface& fs = *s.fs;
  ASSERT_TRUE(fs.WriteFile("/f", "abcdef").ok());
  auto fd = fs.Open("/f", kOpenRead);
  ASSERT_TRUE(fd.ok());
  char buf[3];
  EXPECT_EQ(fs.Read(fd.value(), buf, 3).value(), 3u);
  EXPECT_EQ(std::string(buf, 3), "abc");
  ASSERT_TRUE(fs.Seek(fd.value(), 4).ok());
  EXPECT_EQ(fs.Read(fd.value(), buf, 3).value(), 2u);
  EXPECT_EQ(std::string(buf, 2), "ef");
  ASSERT_TRUE(fs.Close(fd.value()).ok());
}

TEST_P(BaselineLayerTest, RandomizedEquivalenceWithRawVfs) {
  Stack layered(GetParam());
  Stack raw(Layer::kRaw);
  Rng rng(2024);
  std::vector<std::string> dirs = {"/"};
  std::vector<std::string> files;
  int counter = 0;
  for (int step = 0; step < 300; ++step) {
    switch (rng.NextBelow(6)) {
      case 0: {
        const std::string& base = rng.Pick(dirs);
        std::string d =
            JoinPath(base == "/" ? "" : base, "d" + std::to_string(counter++));
        auto r1 = layered.fs->Mkdir(d);
        auto r2 = raw.fs->Mkdir(d);
        ASSERT_EQ(r1.code(), r2.code()) << d;
        if (r1.ok()) {
          dirs.push_back(d);
        }
        break;
      }
      case 1: {
        const std::string& base = rng.Pick(dirs);
        std::string f = JoinPath(base == "/" ? "" : base, "f" + std::to_string(counter++));
        std::string content = "content" + std::to_string(rng.NextBelow(1000));
        ASSERT_EQ(layered.fs->WriteFile(f, content).code(),
                  raw.fs->WriteFile(f, content).code());
        files.push_back(f);
        break;
      }
      case 2: {
        if (!files.empty()) {
          const std::string& f = rng.Pick(files);
          auto r1 = layered.fs->ReadFileToString(f);
          auto r2 = raw.fs->ReadFileToString(f);
          ASSERT_EQ(r1.ok(), r2.ok());
          if (r1.ok()) {
            ASSERT_EQ(r1.value(), r2.value());
          }
        }
        break;
      }
      case 3: {
        if (!files.empty()) {
          size_t i = rng.NextBelow(files.size());
          ASSERT_EQ(layered.fs->Unlink(files[i]).code(), raw.fs->Unlink(files[i]).code());
          files.erase(files.begin() + static_cast<long>(i));
        }
        break;
      }
      case 4: {
        if (!files.empty()) {
          // A copy: the push_back below may reallocate `files`.
          const std::string f = rng.Pick(files);
          std::string to = f + "_r";
          auto r1 = layered.fs->Rename(f, to);
          auto r2 = raw.fs->Rename(f, to);
          ASSERT_EQ(r1.code(), r2.code());
          if (r1.ok()) {
            files.push_back(to);
            files.erase(std::find(files.begin(), files.end(), f));
          }
        }
        break;
      }
      case 5: {
        const std::string& d = rng.Pick(dirs);
        auto r1 = layered.fs->ReadDir(d);
        auto r2 = raw.fs->ReadDir(d);
        ASSERT_EQ(r1.ok(), r2.ok());
        if (r1.ok()) {
          ASSERT_EQ(r1.value().size(), r2.value().size());
        }
        break;
      }
    }
  }
  // Final trees are identical.
  EXPECT_EQ(layered.fs->ListTree("/").value(), raw.fs->ListTree("/").value());
}

INSTANTIATE_TEST_SUITE_P(Layers, BaselineLayerTest,
                         ::testing::Values(Layer::kRaw, Layer::kJade, Layer::kPseudo),
                         [](const ::testing::TestParamInfo<Layer>& param_info) {
                           switch (param_info.param) {
                             case Layer::kRaw:
                               return "Raw";
                             case Layer::kJade:
                               return "Jade";
                             case Layer::kPseudo:
                               return "Pseudo";
                           }
                           return "Unknown";
                         });

TEST(JadeFsTest, MaintainsTranslationTable) {
  FileSystem backing;
  JadeFs jade(&backing);
  ASSERT_TRUE(jade.MkdirAll("/a/b/c").ok());
  EXPECT_EQ(jade.TableEntries(), 4u);  // root + 3
  ASSERT_TRUE(jade.Rename("/a/b", "/a/z").ok());
  EXPECT_TRUE(jade.Exists("/a/z/c"));
  EXPECT_FALSE(jade.Exists("/a/b"));
  ASSERT_TRUE(jade.Rmdir("/a/z/c").ok());
  EXPECT_EQ(jade.TableEntries(), 3u);
}

TEST(PseudoFsTest, CountsMessagesAndBytes) {
  FileSystem backing;
  PseudoFs pseudo(&backing);
  ASSERT_TRUE(pseudo.WriteFile("/f", "0123456789").ok());
  uint64_t messages = pseudo.MessagesExchanged();
  EXPECT_GE(messages, 6u);  // open + write + close, each request+reply
  EXPECT_GT(pseudo.BytesThroughChannel(), 10u);  // payload crossed the channel
  ASSERT_TRUE(pseudo.ReadFileToString("/f").ok());
  EXPECT_GT(pseudo.MessagesExchanged(), messages);
}

}  // namespace
}  // namespace hac
