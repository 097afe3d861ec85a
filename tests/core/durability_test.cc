// The recovery test matrix for the durability layer (docs/DURABILITY.md).
//
// Every row runs the same scripted workload in batches against a DurableStore, kills
// the "process" somewhere (fault-injected WAL, corrupted files, or a plain drop of
// the in-memory state), recovers from the surviving data directory, and asserts the
// durability contract:
//
//   * every batch whose CommitFrom() succeeded (an "acknowledged" batch) is fully
//     present in the recovered state;
//   * the recovered state equals a clean replay reference digest-for-digest
//     (StateDigest covers paths, contents, symlink targets, queries, link classes);
//   * fsck reports the recovered instance fully consistent.
#include "src/core/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/tools/fsck.h"

namespace hac {
namespace {

namespace fs_std = std::filesystem;

// Fresh per-test data directory under the build tree (never /tmp).
std::string TestDir(const std::string& name) {
  fs_std::path dir = fs_std::current_path() / "durability_test_data" / name;
  fs_std::remove_all(dir);
  fs_std::create_directories(dir);
  return dir.string();
}

using Batch = std::function<Result<void>(HacFileSystem&)>;

// The scripted workload: replayable mutations only (no mounts), touching every
// journaled operation class — creates, writes at offsets, truncation, unlink,
// rename, symlinks, semantic directories, query changes, prohibit/unprohibit.
std::vector<Batch> Workload() {
  return {
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Mkdir("/docs"));
        return fs.WriteFile("/docs/a.txt", "alpha fingerprint evidence");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.WriteFile("/docs/b.txt", "beta dental records"));
        return fs.Mkdir("/work");
      },
      [](HacFileSystem& fs) -> Result<void> {
        return fs.SMkdir("/sem", "fingerprint");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(
            fs.WriteFile("/docs/c.txt", "gamma fingerprint dental"));
        return fs.SetQuery("/sem", "fingerprint OR dental");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Rename("/docs/b.txt", "/work/b.txt"));
        return fs.Symlink("/docs/a.txt", "/work/alink");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Prohibit("/sem", "/docs/c.txt"));
        return fs.WriteFile("/docs/d.txt", "delta notes fingerprint");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Unlink("/docs/d.txt"));
        return fs.AppendFile("/docs/a.txt", " appended tail");
      },
      [](HacFileSystem& fs) -> Result<void> {
        HAC_RETURN_IF_ERROR(fs.Unprohibit("/sem", "/docs/c.txt"));
        return fs.WriteFile("/work/e.txt", "epsilon findings");
      },
  };
}

// Reference: the first `num_batches` batches applied to a fresh instance, reindexed.
uint64_t CleanReplayDigest(size_t num_batches) {
  HacFileSystem fs;
  const std::vector<Batch> batches = Workload();
  for (size_t i = 0; i < num_batches && i < batches.size(); ++i) {
    EXPECT_TRUE(batches[i](fs).ok()) << "reference batch " << i;
  }
  EXPECT_TRUE(fs.Reindex().ok());
  return StateDigest(fs);
}

// Reference: the given WAL frames re-executed through ApplyRecord, reindexed.
// Matches recovery exactly — including a tail cut mid-batch.
uint64_t FrameReplayDigest(const std::vector<DurableStore::DecodedFrame>& frames) {
  HacFileSystem fs;
  for (const auto& frame : frames) {
    (void)DurableStore::ApplyRecord(fs, frame.record);
  }
  EXPECT_TRUE(fs.Reindex().ok());
  return StateDigest(fs);
}

uint64_t DigestOf(HacFileSystem& fs) {
  EXPECT_TRUE(fs.Reindex().ok());
  return StateDigest(fs);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> ListFiles(const std::string& dir, const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& entry : fs_std::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs batches through `store`, committing after each; returns the number of
// acknowledged batches (stops at the first failed commit, like the service would).
size_t RunBatches(HacFileSystem& fs, DurableStore& store, size_t checkpoint_after,
                  size_t second_checkpoint_after = 0) {
  const std::vector<Batch> batches = Workload();
  for (size_t i = 0; i < batches.size(); ++i) {
    Result<void> applied = batches[i](fs);
    EXPECT_TRUE(applied.ok()) << "batch " << i << ": "
                              << (applied.ok() ? "" : applied.error().ToString());
    if (!store.CommitFrom(fs).ok()) {
      return i;  // this batch was not acknowledged
    }
    if ((checkpoint_after != 0 && i + 1 == checkpoint_after) ||
        (second_checkpoint_after != 0 && i + 1 == second_checkpoint_after)) {
      EXPECT_TRUE(store.Checkpoint(fs).ok());
    }
  }
  return batches.size();
}

void ExpectAckedBatchesPresent(HacFileSystem& fs, size_t acked) {
  // Spot checks per batch: the on-disk artifact each acknowledged batch left.
  if (acked >= 1) {
    auto a = fs.ReadFileToString("/docs/a.txt");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().rfind("alpha fingerprint evidence", 0), 0u);
  }
  if (acked >= 3) {
    auto q = fs.GetQuery("/sem");
    ASSERT_TRUE(q.ok());
    EXPECT_FALSE(q.value().empty());
  }
  if (acked >= 5) {
    EXPECT_TRUE(fs.Exists("/work/b.txt"));
    auto target = fs.ReadLink("/work/alink");
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(target.value(), "/docs/a.txt");
  }
  if (acked >= 7) {
    EXPECT_FALSE(fs.Exists("/docs/d.txt"));
    auto a = fs.ReadFileToString("/docs/a.txt");
    ASSERT_TRUE(a.ok());
    EXPECT_NE(a.value().find(" appended tail"), std::string::npos);
  }
  if (acked >= 8) {
    EXPECT_TRUE(fs.Exists("/work/e.txt"));
  }
}

enum class Row {
  kCrashBeforeFsync,
  kTornLastFrame,
  kTruncatedCheckpoint,
  kStaleCheckpointLongTail,
  kCorruptCrcMidLog,
};

std::string RowName(Row row) {
  switch (row) {
    case Row::kCrashBeforeFsync:
      return "CrashBeforeFsync";
    case Row::kTornLastFrame:
      return "TornLastFrame";
    case Row::kTruncatedCheckpoint:
      return "TruncatedCheckpoint";
    case Row::kStaleCheckpointLongTail:
      return "StaleCheckpointLongTail";
    case Row::kCorruptCrcMidLog:
      return "CorruptCrcMidLog";
  }
  return "?";
}

class CrashMatrixTest : public ::testing::TestWithParam<Row> {};

TEST_P(CrashMatrixTest, RecoversToCleanReplayReference) {
  const Row row = GetParam();
  const std::string dir = TestDir(RowName(row));

  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.wal_fault = FaultSpec{};  // rows opt in below; ignore any ambient env
  size_t checkpoint_after = 0;
  size_t second_checkpoint_after = 0;
  switch (row) {
    case Row::kCrashBeforeFsync:
      opts.wal_fault = FaultSpec::Parse("crash_after:6");
      break;
    case Row::kTornLastFrame:
      opts.wal_fault = FaultSpec::Parse("torn:5");
      break;
    case Row::kTruncatedCheckpoint:
      checkpoint_after = 4;
      second_checkpoint_after = 6;
      break;
    case Row::kStaleCheckpointLongTail:
      checkpoint_after = 1;
      break;
    case Row::kCorruptCrcMidLog:
      break;
  }

  // --- phase 1: live run until the injected crash (or a clean drop) ---
  size_t acked = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    acked = RunBatches(*fs.value(), *store.value(), checkpoint_after,
                       second_checkpoint_after);
    // The in-memory state now dies with the "process": unique_ptrs go out of scope
    // without any checkpoint or shutdown courtesy.
  }
  if (opts.wal_fault.active()) {
    EXPECT_LT(acked, Workload().size()) << "the fault was supposed to fire";
  } else {
    EXPECT_EQ(acked, Workload().size());
  }

  // --- phase 2: post-crash disk damage for the file-corruption rows ---
  if (row == Row::kTruncatedCheckpoint) {
    auto checkpoints = ListFiles(dir, "checkpoint-");
    ASSERT_EQ(checkpoints.size(), 2u);
    // Tear the NEWEST checkpoint in half; recovery must fall back to the older one.
    std::vector<uint8_t> bytes = ReadFileBytes(checkpoints.back());
    bytes.resize(bytes.size() / 2);
    WriteFileBytes(checkpoints.back(), bytes);
  }
  std::vector<DurableStore::DecodedFrame> surviving;
  if (row == Row::kCorruptCrcMidLog) {
    auto wals = ListFiles(dir, "wal-");
    ASSERT_EQ(wals.size(), 1u);
    std::vector<uint8_t> bytes = ReadFileBytes(wals[0]);
    ASSERT_GT(bytes.size(), 16u);
    bytes[bytes.size() / 2] ^= 0x01;  // silent media corruption mid-log
    WriteFileBytes(wals[0], bytes);
    bool truncated = false;
    std::string detail;
    surviving = DurableStore::DecodeFrames(bytes, &truncated, &detail);
    ASSERT_TRUE(truncated) << "the flipped bit must invalidate a frame";
  }
  if (row == Row::kTornLastFrame) {
    // The torn tail is literally on disk: decoding must stop early.
    auto wals = ListFiles(dir, "wal-");
    ASSERT_EQ(wals.size(), 1u);
    bool truncated = false;
    std::string detail;
    surviving = DurableStore::DecodeFrames(ReadFileBytes(wals[0]), &truncated, &detail);
    ASSERT_TRUE(truncated);
  }

  // --- phase 3: recover (no fault injection; the new process is healthy) ---
  DurabilityOptions clean = opts;
  clean.wal_fault = FaultSpec{};
  auto reopened = DurableStore::Open(clean);
  ASSERT_TRUE(reopened.ok());
  auto recovered = reopened.value()->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.error().ToString();
  const RecoveryInfo& info = reopened.value()->recovery_info();

  // --- phase 4: the contract ---
  FsckReport report = RunFsck(*recovered.value());
  EXPECT_TRUE(report.Clean()) << report.ToString();
  if (row != Row::kCorruptCrcMidLog) {
    // Every crash shape preserves acknowledged batches. Silent media corruption
    // (the CRC row) is the one damage model outside that guarantee — it destroys
    // already-acknowledged frames post hoc, and the contract there is "serve the
    // valid prefix", asserted via FrameReplayDigest below.
    ExpectAckedBatchesPresent(*recovered.value(), acked);
  }
  const uint64_t got = DigestOf(*recovered.value());
  switch (row) {
    case Row::kCrashBeforeFsync:
      // Unsynced frames are gone wholesale: the surviving log is exactly the
      // acknowledged batches, so the op-level reference applies.
      EXPECT_EQ(got, CleanReplayDigest(acked));
      EXPECT_FALSE(info.tail_truncated) << info.detail;
      break;
    case Row::kTornLastFrame:
      EXPECT_EQ(got, FrameReplayDigest(surviving));
      EXPECT_TRUE(info.tail_truncated);
      break;
    case Row::kTruncatedCheckpoint:
      EXPECT_EQ(got, CleanReplayDigest(Workload().size()));
      EXPECT_GT(info.checkpoint_lsn, 0u);  // fell back to the older generation
      EXPECT_GT(info.replayed_records, 0u);
      break;
    case Row::kStaleCheckpointLongTail:
      EXPECT_EQ(got, CleanReplayDigest(Workload().size()));
      EXPECT_GT(info.replayed_records, 0u);
      EXPECT_GT(info.skipped_records, 0u);  // genesis segment predates the checkpoint
      break;
    case Row::kCorruptCrcMidLog:
      EXPECT_EQ(got, FrameReplayDigest(surviving));
      EXPECT_TRUE(info.tail_truncated);
      break;
  }

  // A second recovery of the repaired directory is clean and identical: the damaged
  // suffix was discarded on the first pass, not deferred.
  auto again = DurableStore::Open(clean);
  ASSERT_TRUE(again.ok());
  auto recovered2 = again.value()->Recover();
  ASSERT_TRUE(recovered2.ok());
  EXPECT_FALSE(again.value()->recovery_info().tail_truncated)
      << again.value()->recovery_info().detail;
  EXPECT_EQ(DigestOf(*recovered2.value()), got);
}

INSTANTIATE_TEST_SUITE_P(DurabilityMatrix, CrashMatrixTest,
                         ::testing::Values(Row::kCrashBeforeFsync,
                                           Row::kTornLastFrame,
                                           Row::kTruncatedCheckpoint,
                                           Row::kStaleCheckpointLongTail,
                                           Row::kCorruptCrcMidLog),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return RowName(info.param);
                         });

// --- unit coverage around the matrix ---

TEST(DurabilityTest, FrameCodecRoundTrips) {
  JournalRecord rec;
  rec.op = JournalOp::kFileWritten;
  rec.subject = 42;
  rec.a = "/docs/a.txt";
  rec.b = std::string("payload\0with zero", 17);
  std::vector<uint8_t> bytes;
  DurableStore::EncodeFrame(7, rec, bytes);
  DurableStore::EncodeFrame(8, rec, bytes);
  bool truncated = true;
  std::string detail;
  auto frames = DurableStore::DecodeFrames(bytes, &truncated, &detail);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(frames[0].lsn, 7u);
  EXPECT_EQ(frames[1].lsn, 8u);
  EXPECT_EQ(frames[0].record.op, JournalOp::kFileWritten);
  EXPECT_EQ(frames[0].record.subject, 42u);
  EXPECT_EQ(frames[0].record.a, "/docs/a.txt");
  EXPECT_EQ(frames[0].record.b, rec.b);

  // A torn header (under 8 bytes of trailer) stops the scan but keeps the prefix.
  bytes.resize(bytes.size() - frames.back().record.b.size() - 12);
  frames = DurableStore::DecodeFrames(bytes, &truncated, &detail);
  EXPECT_EQ(frames.size(), 1u);
  EXPECT_TRUE(truncated);
}

TEST(DurabilityTest, FaultSpecParses) {
  EXPECT_EQ(FaultSpec::Parse("crash_after:3").kind, FaultSpec::Kind::kCrashAfter);
  EXPECT_EQ(FaultSpec::Parse("crash_after:3").at_write, 3u);
  EXPECT_EQ(FaultSpec::Parse("torn:9").kind, FaultSpec::Kind::kTorn);
  EXPECT_EQ(FaultSpec::Parse("bitflip:1").kind, FaultSpec::Kind::kBitFlip);
  EXPECT_FALSE(FaultSpec::Parse("").active());
  EXPECT_FALSE(FaultSpec::Parse("nonsense").active());
  EXPECT_FALSE(FaultSpec::Parse("torn").active());
}

TEST(DurabilityTest, BitFlipIsCaughtByCrc) {
  const std::string dir = TestDir("BitFlip");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.wal_fault = FaultSpec::Parse("bitflip:3");
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  const size_t acked = RunBatches(*fs.value(), *store.value(), 0);
  // The flip is silent: every batch still acknowledges.
  EXPECT_EQ(acked, Workload().size());

  DurabilityOptions clean = opts;
  clean.wal_fault = FaultSpec{};
  auto reopened = DurableStore::Open(clean);
  ASSERT_TRUE(reopened.ok());
  auto recovered = reopened.value()->Recover();
  ASSERT_TRUE(recovered.ok());
  // Only the CRC notices — replay stops at the flipped frame.
  EXPECT_TRUE(reopened.value()->recovery_info().tail_truncated);
  EXPECT_TRUE(RunFsck(*recovered.value()).Clean());
}

TEST(DurabilityTest, CommitFromWritesOnlyReplayableFrames) {
  const std::string dir = TestDir("ReplayableOnly");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.wal_fault = FaultSpec{};
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  // SMkdir journals bookkeeping echoes (kLinkAdded) alongside the replayable ops.
  ASSERT_TRUE(fs.value()->Mkdir("/d").ok());
  ASSERT_TRUE(fs.value()->WriteFile("/d/x.txt", "fingerprint").ok());
  ASSERT_TRUE(fs.value()->Reindex().ok());
  ASSERT_TRUE(fs.value()->SMkdir("/q", "fingerprint").ok());
  ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());

  auto wals = ListFiles(dir, "wal-");
  ASSERT_EQ(wals.size(), 1u);
  bool truncated = false;
  auto frames = DurableStore::DecodeFrames(ReadFileBytes(wals[0]), &truncated, nullptr);
  EXPECT_FALSE(truncated);
  ASSERT_FALSE(frames.empty());
  uint64_t prev_lsn = 0;
  for (const auto& frame : frames) {
    EXPECT_TRUE(IsReplayableOp(frame.record.op))
        << "non-replayable op in the WAL: " << JournalOpName(frame.record.op);
    EXPECT_GT(frame.lsn, prev_lsn) << "LSNs must be strictly monotone";
    prev_lsn = frame.lsn;
  }
}

TEST(DurabilityTest, CleanStopRestartReplaysNothing) {
  const std::string dir = TestDir("CleanRestart");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.wal_fault = FaultSpec{};
  uint64_t digest = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto fs = store.value()->Recover();
    ASSERT_TRUE(fs.ok());
    RunBatches(*fs.value(), *store.value(), 0);
    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());  // the clean shutdown
    digest = DigestOf(*fs.value());
  }
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(store.value()->recovery_info().replayed_records, 0u);
  EXPECT_GT(store.value()->recovery_info().checkpoint_lsn, 0u);
  EXPECT_EQ(DigestOf(*fs.value()), digest);
}

// Two permanent links to one file in a semantic directory: removing one must leave
// the file linked (not prohibited) through the other; removing the second prohibits
// it. WAL replay re-derives the same state.
TEST(DurabilityTest, UnlinkOneOfTwoPermanentLinksKeepsTheFileLinked) {
  DurabilityOptions opts;
  opts.data_dir = TestDir("DuplicateLinkUnlink");
  opts.wal_fault = FaultSpec{};
  uint64_t digest = 0;
  {
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    auto live = store.value()->Recover();
    ASSERT_TRUE(live.ok());
    HacFileSystem& fs = *live.value();
    ASSERT_TRUE(fs.Mkdir("/docs").ok());
    ASSERT_TRUE(fs.WriteFile("/docs/a.txt", "alpha fingerprint").ok());
    ASSERT_TRUE(fs.WriteFile("/docs/b.txt", "beta dental").ok());
    ASSERT_TRUE(fs.Reindex().ok());
    ASSERT_TRUE(fs.SMkdir("/sem", "fingerprint").ok());
    ASSERT_TRUE(fs.Symlink("/docs/b.txt", "/sem/one").ok());
    ASSERT_TRUE(fs.Symlink("/docs/b.txt", "/sem/two").ok());

    ASSERT_TRUE(fs.Unlink("/sem/one").ok());
    auto classes = fs.GetLinkClasses("/sem");
    ASSERT_TRUE(classes.ok());
    EXPECT_TRUE(classes.value().prohibited.empty());
    EXPECT_EQ(classes.value().permanent,
              (std::vector<std::pair<std::string, std::string>>{{"two", "/docs/b.txt"}}));
    FsckReport report = RunFsck(fs);
    EXPECT_TRUE(report.Clean()) << report.ToString();

    ASSERT_TRUE(fs.Unlink("/sem/two").ok());
    classes = fs.GetLinkClasses("/sem");
    ASSERT_TRUE(classes.ok());
    EXPECT_TRUE(classes.value().permanent.empty());
    EXPECT_EQ(classes.value().prohibited, std::vector<std::string>{"/docs/b.txt"});
    report = RunFsck(fs);
    EXPECT_TRUE(report.Clean()) << report.ToString();

    ASSERT_TRUE(store.value()->CommitFrom(fs).ok());
    digest = DigestOf(fs);
  }
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto recovered = store.value()->Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(store.value()->recovery_info().replayed_records, 0u);
  EXPECT_EQ(DigestOf(*recovered.value()), digest);
  FsckReport report = RunFsck(*recovered.value());
  EXPECT_TRUE(report.Clean()) << report.ToString();
}

TEST(DurabilityTest, CheckpointsPruneToTwoGenerations) {
  const std::string dir = TestDir("Prune");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.wal_fault = FaultSpec{};
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  const std::vector<Batch> batches = Workload();
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(batches[i](*fs.value()).ok());
    ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
    ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
  }
  EXPECT_LE(ListFiles(dir, "checkpoint-").size(), 2u);
  // The WAL never accumulates segments the retained checkpoints cannot use.
  EXPECT_LE(ListFiles(dir, "wal-").size(), 3u);
}

TEST(DurabilityTest, ShouldCheckpointTracksThresholds) {
  const std::string dir = TestDir("Thresholds");
  DurabilityOptions opts;
  opts.data_dir = dir;
  opts.checkpoint_interval_records = 3;
  opts.checkpoint_interval_bytes = 0;
  opts.wal_fault = FaultSpec{};
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  auto fs = store.value()->Recover();
  ASSERT_TRUE(fs.ok());
  EXPECT_FALSE(store.value()->ShouldCheckpoint());
  ASSERT_TRUE(fs.value()->Mkdir("/a").ok());
  ASSERT_TRUE(fs.value()->Mkdir("/b").ok());
  ASSERT_TRUE(fs.value()->Mkdir("/c").ok());
  ASSERT_TRUE(store.value()->CommitFrom(*fs.value()).ok());
  EXPECT_TRUE(store.value()->ShouldCheckpoint());
  ASSERT_TRUE(store.value()->Checkpoint(*fs.value()).ok());
  EXPECT_FALSE(store.value()->ShouldCheckpoint());
}

TEST(DurabilityTest, OpenRejectsEmptyDataDir) {
  EXPECT_FALSE(DurableStore::Open(DurabilityOptions{}).ok());
}

}  // namespace
}  // namespace hac
