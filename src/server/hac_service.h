// HacService ("hacd"): an embeddable concurrent service front-end that multiplexes
// many clients over one HacFileSystem.
//
// Architecture (see DESIGN.md "Service layer & threading model"):
//
//   * Every request is classified read or write (src/server/request.h).
//   * Read-class requests run concurrently on a reader ThreadPool; each execution
//     holds the shared side of one std::shared_mutex. Read paths through the facade
//     are mutation-free on shared state (atomic stats counters, locked attribute
//     cache), so any number of readers may overlap.
//   * Write-class requests go through a bounded MPSC queue drained by ONE writer
//     thread. The writer takes the exclusive side of the lock, wraps each drained
//     group of pending mutations in a single ConsistencyEngine BatchScope, executes
//     them back-to-back, and completes each request only after the batch flush — so
//     N concurrent writers pay one topological propagation pass, and a client's next
//     read always sees its own settled write.
//   * Writer priority: readers pause admission to the lock while the writer is
//     waiting (std::shared_mutex makes no fairness promise), so a query storm cannot
//     starve mutations.
//   * Admission control: both queues are bounded. A full queue rejects immediately
//     with Error::kOverloaded; a request that waited in queue longer than its class
//     timeout is shed (also kOverloaded) instead of executing stale work.
//
// The facade must be driven only through the service while the service is running;
// direct HacFileSystem calls from other threads would bypass the lock.
#ifndef HAC_SERVER_HAC_SERVICE_H_
#define HAC_SERVER_HAC_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/core/hac_file_system.h"
#include "src/server/request.h"
#include "src/server/session.h"
#include "src/support/thread_pool.h"

namespace hac {

class DurableStore;  // src/core/durability.h

struct ServiceOptions {
  size_t read_workers = 4;
  size_t max_read_queue = 256;   // admitted-but-not-started read requests
  size_t max_write_queue = 256;  // queued write requests
  size_t max_write_batch = 64;   // mutations coalesced into one BatchScope
  // Per-class queue deadlines; a request older than this when dequeued is shed with
  // kOverloaded. Zero disables the deadline for that class.
  std::chrono::milliseconds read_queue_timeout{2000};
  std::chrono::milliseconds write_queue_timeout{5000};
  // Test hook: runs on the worker thread right before a read request executes (after
  // the shared lock is held). Used to make overload/timeout tests deterministic.
  std::function<void()> read_hook;
  // Server-side cursor policy (docs/API.md "Cursor ops"). A session holds at
  // most this many open cursors; kOpenCursor beyond the cap is refused with
  // kOverloaded. Cursors idle past the transport's idle_timeout_ms are reclaimed
  // by the same sweep that closes idle connections (HarvestIdleCursors).
  size_t max_cursors_per_session = 64;
  // Optional crash-safety hook (docs/DURABILITY.md). When set, the writer thread
  // group-commits the facade's journal into the store's WAL after every batch flush
  // and before any future in the batch is fulfilled — an acknowledged write is on
  // disk. The writer also takes a checkpoint whenever the store's policy asks for
  // one (DurabilityOptions thresholds) or a kCheckpoint request arrives, and Stop()
  // seals the store with a final checkpoint. Not owned; must outlive the service.
  DurableStore* durable_store = nullptr;
};

struct ServiceStats {
  uint64_t admitted_reads = 0;
  uint64_t admitted_writes = 0;
  uint64_t rejected_queue_full = 0;  // explicit kOverloaded at submission
  uint64_t shed_deadline = 0;        // kOverloaded after waiting past the class timeout
  uint64_t executed_reads = 0;
  uint64_t executed_writes = 0;
  uint64_t write_batches = 0;        // BatchScope groups the writer committed
  uint64_t largest_write_batch = 0;
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
};

class HacService {
 public:
  explicit HacService(HacFileSystem& fs, ServiceOptions options = {});
  ~HacService();

  HacService(const HacService&) = delete;
  HacService& operator=(const HacService&) = delete;

  // Sessions are owned by the service. The pointer stays valid until CloseSession
  // (or service destruction). One synchronous client per session.
  Session* OpenSession();
  // Closes every descriptor the session still holds (through the write path, so it
  // serializes with in-flight mutations), then destroys the session.
  Result<void> CloseSession(Session* session);

  // Asynchronous submission: a thin wrapper over SubmitCallback whose callback
  // fulfils the returned future. Admission control may fulfil it immediately with
  // kOverloaded.
  std::future<ServerResponse> Submit(Session* session, ServerRequest req);

  // Callback-flavored submission for event-driven transports: `done` fires exactly
  // once with the response, on whichever thread completes the request — a reader
  // worker, the writer thread, or (for inline completions: admission rejection,
  // kIntrospect, null session) the caller's own thread. The callback must be cheap
  // and must not re-enter the service; transports use it to hand the response to
  // the connection's owning reactor. Requests submitted this way go through the
  // same admission control, shedding, and batching; Submit is built on it.
  using ResponseCallback = std::function<void(ServerResponse)>;
  void SubmitCallback(Session* session, ServerRequest req, ResponseCallback done);

  // Non-blocking analogue of CloseSession for reactor threads: submits the
  // kCloseSession request through the write path (so it serializes after the
  // session's in-flight mutations) and erases the session when it completes;
  // `done` (optional) then fires. If the writer has already stopped, descriptors
  // are reclaimed inline under the exclusive lock, exactly like CloseSession.
  // The session pointer is invalid once `done` runs (or immediately after the
  // call if the service already stopped admission).
  void CloseSessionAsync(Session* session, std::function<void()> done = nullptr);

  // Synchronous convenience: Submit + wait.
  ServerResponse Call(Session* session, ServerRequest req);

  // Drops the session's cursors untouched since `cutoff` and updates the cursor
  // metrics. Called by the reactor's idle sweep — safe concurrently with fetches,
  // which hold the table mutex.
  static size_t HarvestIdleCursors(Session* session,
                                   std::chrono::steady_clock::time_point cutoff);

  // Stops admission, completes everything already admitted, joins all threads.
  // Idempotent; the destructor calls it.
  void Stop();

  ServiceStats Stats() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct Pending {
    ServerRequest req;
    Session* session = nullptr;
    ResponseCallback callback;  // fires exactly once, from Fulfil
    std::chrono::steady_clock::time_point enqueued;

    void Fulfil(ServerResponse resp) { callback(std::move(resp)); }
  };

  static ServerResponse Overloaded(const std::string& why);

  // Resolves a request path against the session cwd ("" -> cwd itself).
  static std::string Absolutize(const Session& session, const std::string& path);

  // SubmitCallback's body: admission control + dispatch. Fulfils
  // `p` inline on rejection/introspection, otherwise hands it to a worker.
  void Dispatch(std::shared_ptr<Pending> p);
  // Removes `session` from the session table (it must already have executed its
  // kCloseSession, or the caller holds the exclusive lock after inline cleanup).
  void EraseSession(Session* session);

  void RunRead(std::shared_ptr<Pending> p);
  void WriterLoop();
  // True if `p` outlived its class deadline; fulfils the promise when so.
  bool ShedIfExpired(Pending& p, std::chrono::milliseconds timeout);

  ServerResponse ExecuteRead(Session* session, const ServerRequest& req);
  ServerResponse ExecuteWrite(Session* session, const ServerRequest& req);
  void CloseSessionDescriptors(Session* session);

  // Writer-priority gate around the shared lock: readers wait while a writer is
  // pending so a stream of reads cannot starve the single writer.
  void ReaderLockShared();

  HacFileSystem& fs_;
  const ServiceOptions options_;

  std::shared_mutex fs_lock_;
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool writer_pending_ = false;

  ThreadPool readers_;
  std::atomic<size_t> queued_reads_ = 0;
  BoundedMpscQueue<std::shared_ptr<Pending>> write_queue_;
  std::thread writer_;
  std::atomic<bool> stopping_ = false;
  std::once_flag stop_once_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  // ServiceStats counters (atomic mirror; Stats() snapshots them).
  std::atomic<uint64_t> admitted_reads_ = 0, admitted_writes_ = 0,
                        rejected_queue_full_ = 0, shed_deadline_ = 0,
                        executed_reads_ = 0, executed_writes_ = 0, write_batches_ = 0,
                        largest_write_batch_ = 0, sessions_opened_ = 0,
                        sessions_closed_ = 0;
};

}  // namespace hac

#endif  // HAC_SERVER_HAC_SERVICE_H_
