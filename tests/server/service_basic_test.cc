// HacService scheduling tests: write batching and admission control (queue-full
// rejection and queue-deadline shedding), made deterministic with the service's
// read_hook test hook. Client-visible behaviour (op parity, session isolation,
// descriptor lifecycle) lives in client_contract_test.cc, which runs the same
// assertions over both the in-process and the TCP transport.
#include "src/server/hac_service.h"

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"

namespace hac {
namespace {

using std::chrono::milliseconds;

ServerRequest MakeReq(ServerOp op, std::string path = "", std::string aux = "") {
  ServerRequest req;
  req.op = op;
  req.path = std::move(path);
  req.aux = std::move(aux);
  return req;
}

// Blocks the reader pool inside a read request (while it holds the shared lock) until
// Release() is called; Await() returns once a reader is parked inside the hook.
class ReadGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lk(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lk, [this] { return released_; });
    };
  }

  void AwaitEntered(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this, n] { return entered_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

class ServiceBasicTest : public ::testing::Test {
 protected:
  HacFileSystem fs_;
};

TEST_F(ServiceBasicTest, ConcurrentWritesCoalesceIntoBatches) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* reader = service.OpenSession();
  Session* writer = service.OpenSession();

  // Park a read inside the shared lock so the writer thread cannot commit.
  auto blocked_read = service.Submit(reader, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);

  std::vector<std::future<ServerResponse>> writes;
  for (int i = 0; i < 10; ++i) {
    writes.push_back(
        service.Submit(writer, MakeReq(ServerOp::kMkdir, "/d" + std::to_string(i))));
  }
  gate.Release();
  ASSERT_TRUE(blocked_read.get().ok());
  for (auto& w : writes) {
    ASSERT_TRUE(w.get().ok());
  }

  // All ten mutations were queued while the lock was held, so the writer drained
  // them in at most two BatchScope groups (however the dequeue interleaved with the
  // submission loop, one of the two groups holds at least half of them).
  auto stats = service.Stats();
  EXPECT_EQ(stats.executed_writes, 10u);
  EXPECT_LE(stats.write_batches, 2u);
  EXPECT_GE(stats.largest_write_batch, 5u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fs_.StatPath("/d" + std::to_string(i)).ok());
  }

  ASSERT_TRUE(service.CloseSession(reader).ok());
  ASSERT_TRUE(service.CloseSession(writer).ok());
}

TEST_F(ServiceBasicTest, ReadQueueFullRejectsWithOverloaded) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.max_read_queue = 2;
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  // First read occupies the single worker inside the hook...
  auto r1 = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  // ...so these two fill the admission window...
  auto r2 = service.Submit(s, MakeReq(ServerOp::kPing));
  auto r3 = service.Submit(s, MakeReq(ServerOp::kPing));
  // ...and the next is rejected, not queued.
  auto r4 = service.Submit(s, MakeReq(ServerOp::kPing));
  ServerResponse rejected = r4.get();
  EXPECT_EQ(rejected.error.code, ErrorCode::kOverloaded);

  gate.Release();
  EXPECT_TRUE(r1.get().ok());
  EXPECT_TRUE(r2.get().ok());
  EXPECT_TRUE(r3.get().ok());

  auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.executed_reads, 3u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

TEST_F(ServiceBasicTest, ReadPastQueueDeadlineIsShed) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.read_queue_timeout = milliseconds(50);
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  auto r1 = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  auto r2 = service.Submit(s, MakeReq(ServerOp::kPing));
  // r2 waits in the pool behind the parked worker until well past its deadline.
  std::this_thread::sleep_for(milliseconds(120));
  gate.Release();

  EXPECT_TRUE(r1.get().ok());
  ServerResponse shed = r2.get();
  EXPECT_EQ(shed.error.code, ErrorCode::kOverloaded);
  EXPECT_EQ(service.Stats().shed_deadline, 1u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

TEST_F(ServiceBasicTest, WriteAdmissionAndDeadlineShedding) {
  ReadGate gate;
  ServiceOptions opts;
  opts.read_workers = 1;
  opts.max_write_queue = 2;
  opts.write_queue_timeout = milliseconds(50);
  opts.read_hook = gate.Hook();
  HacService service(fs_, opts);
  Session* s = service.OpenSession();

  // Park a read on the shared lock, then let the writer thread dequeue one write and
  // block on the exclusive lock.
  auto blocked_read = service.Submit(s, MakeReq(ServerOp::kPing));
  gate.AwaitEntered(1);
  auto w1 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w1"));
  std::this_thread::sleep_for(milliseconds(100));

  // The writer holds w1; the queue (capacity 2) takes w2+w3 and rejects w4 outright.
  auto w2 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w2"));
  auto w3 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w3"));
  auto w4 = service.Submit(s, MakeReq(ServerOp::kMkdir, "/w4"));
  EXPECT_EQ(w4.get().error.code, ErrorCode::kOverloaded);

  // Hold the lock past the write deadline: w1 passed its age check before blocking,
  // so it commits; w2+w3 are shed at dequeue time.
  std::this_thread::sleep_for(milliseconds(100));
  gate.Release();
  EXPECT_TRUE(blocked_read.get().ok());
  EXPECT_TRUE(w1.get().ok());
  EXPECT_EQ(w2.get().error.code, ErrorCode::kOverloaded);
  EXPECT_EQ(w3.get().error.code, ErrorCode::kOverloaded);

  EXPECT_TRUE(fs_.StatPath("/w1").ok());
  EXPECT_FALSE(fs_.StatPath("/w2").ok());
  auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.shed_deadline, 2u);
  ASSERT_TRUE(service.CloseSession(s).ok());
}

TEST_F(ServiceBasicTest, StopCompletesAdmittedWorkThenRejects) {
  HacService service(fs_);
  Session* s = service.OpenSession();
  auto w = service.Submit(s, MakeReq(ServerOp::kMkdir, "/before_stop"));
  EXPECT_TRUE(w.get().ok());
  service.Stop();
  auto after = service.Call(s, MakeReq(ServerOp::kMkdir, "/after_stop"));
  EXPECT_EQ(after.error.code, ErrorCode::kOverloaded);
  EXPECT_FALSE(fs_.StatPath("/after_stop").ok());
  // CloseSession still reclaims the session after Stop.
  ASSERT_TRUE(service.CloseSession(s).ok());
}

}  // namespace
}  // namespace hac
