#include "src/server/hac_service.h"

#include <algorithm>
#include <utility>

#include "src/core/durability.h"
#include "src/index/query.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/vfs/path.h"

namespace hac {

namespace {

ServerResponse ErrorResponse(Error e) {
  ServerResponse r;
  r.error = std::move(e);
  return r;
}

struct ServiceMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& admitted_reads = reg.GetCounter(metric_names::kServiceAdmittedReads);
  Counter& admitted_writes = reg.GetCounter(metric_names::kServiceAdmittedWrites);
  Counter& rejected_queue_full = reg.GetCounter(metric_names::kServiceRejectedQueueFull);
  Counter& shed_deadline = reg.GetCounter(metric_names::kServiceShedDeadline);
  Counter& executed_reads = reg.GetCounter(metric_names::kServiceExecutedReads);
  Counter& executed_writes = reg.GetCounter(metric_names::kServiceExecutedWrites);
  Counter& write_batches = reg.GetCounter(metric_names::kServiceWriteBatches);
  Counter& introspect_requests = reg.GetCounter(metric_names::kServiceIntrospectRequests);
  Counter& sessions_opened = reg.GetCounter(metric_names::kServiceSessionsOpened);
  Counter& sessions_closed = reg.GetCounter(metric_names::kServiceSessionsClosed);
  Gauge& open_sessions = reg.GetGauge(metric_names::kServiceOpenSessions);
  Gauge& read_queue_depth = reg.GetGauge(metric_names::kServiceReadQueueDepth);
  Histogram& queue_wait_read_us = reg.GetHistogram(metric_names::kServiceQueueWaitReadUs);
  Histogram& queue_wait_write_us =
      reg.GetHistogram(metric_names::kServiceQueueWaitWriteUs);
  Histogram& service_time_read_us = reg.GetHistogram(metric_names::kServiceTimeReadUs);
  Histogram& service_time_write_us = reg.GetHistogram(metric_names::kServiceTimeWriteUs);
  Histogram& write_batch_size =
      reg.GetHistogram(metric_names::kServiceWriteBatchSize, "requests");
  Counter& cursor_opened = reg.GetCounter(metric_names::kServerCursorOpened);
  Counter& cursor_closed = reg.GetCounter(metric_names::kServerCursorClosed);
  Counter& cursor_stale = reg.GetCounter(metric_names::kServerCursorStale);
  Counter& cursor_harvested = reg.GetCounter(metric_names::kServerCursorHarvested);
  Gauge& cursor_open = reg.GetGauge(metric_names::kServerCursorOpen);
  Histogram& cursor_page_entries =
      reg.GetHistogram(metric_names::kServerCursorPageEntries, "entries");
  Histogram& cursor_page_bytes =
      reg.GetHistogram(metric_names::kServerCursorPageBytes, "bytes");
};

ServiceMetrics& GM() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

uint64_t WaitedUs(const std::chrono::steady_clock::time_point& enqueued) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - enqueued)
                                   .count());
}

}  // namespace

HacService::HacService(HacFileSystem& fs, ServiceOptions options)
    : fs_(fs),
      options_(options),
      readers_(std::max<size_t>(1, options.read_workers)),
      write_queue_(std::max<size_t>(1, options.max_write_queue)) {
  writer_ = std::thread([this] { WriterLoop(); });
}

HacService::~HacService() { Stop(); }

ServerResponse HacService::Overloaded(const std::string& why) {
  return ErrorResponse(Error(ErrorCode::kOverloaded, why));
}

std::string HacService::Absolutize(const Session& session, const std::string& path) {
  if (path.empty()) {
    return session.cwd();
  }
  if (path.front() == '/') {
    return NormalizePath(path);
  }
  return NormalizePath(JoinPath(session.cwd() == "/" ? "" : session.cwd(), path));
}

Session* HacService::OpenSession() {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  sessions_.emplace_back(std::unique_ptr<Session>(new Session(next_session_id_++)));
  ++sessions_opened_;
  GM().sessions_opened.Inc();
  GM().open_sessions.Add(1);
  return sessions_.back().get();
}

void HacService::EraseSession(Session* session) {
  std::lock_guard<std::mutex> lk(sessions_mu_);
  auto it = std::find_if(sessions_.begin(), sessions_.end(),
                         [&](const auto& s) { return s.get() == session; });
  if (it == sessions_.end()) {
    return;
  }
  sessions_.erase(it);
  ++sessions_closed_;
  GM().sessions_closed.Inc();
  GM().open_sessions.Add(-1);
}

Result<void> HacService::CloseSession(Session* session) {
  if (session == nullptr) {
    return Error(ErrorCode::kInvalidArgument, "null session");
  }
  ServerRequest req;
  req.op = ServerOp::kCloseSession;
  ServerResponse resp = Call(session, std::move(req));
  if (!resp.ok() && resp.error.code == ErrorCode::kOverloaded) {
    // The writer has already stopped; reclaim the descriptors inline under the
    // exclusive lock instead of losing them.
    std::unique_lock<std::shared_mutex> lk(fs_lock_);
    CloseSessionDescriptors(session);
    resp.error = Error();
  }
  {
    std::lock_guard<std::mutex> lk(sessions_mu_);
    auto it = std::find_if(sessions_.begin(), sessions_.end(),
                           [&](const auto& s) { return s.get() == session; });
    if (it == sessions_.end()) {
      return Error(ErrorCode::kInvalidArgument, "unknown session");
    }
    sessions_.erase(it);
    ++sessions_closed_;
    GM().sessions_closed.Inc();
    GM().open_sessions.Add(-1);
  }
  if (!resp.ok()) {
    return resp.error;
  }
  return OkResult();
}

void HacService::CloseSessionAsync(Session* session, std::function<void()> done) {
  if (session == nullptr) {
    if (done) {
      done();
    }
    return;
  }
  ServerRequest req;
  req.op = ServerOp::kCloseSession;
  SubmitCallback(session, std::move(req),
                 [this, session, done = std::move(done)](ServerResponse resp) {
                   if (!resp.ok() && resp.error.code == ErrorCode::kOverloaded) {
                     // Writer already stopped: reclaim descriptors inline, same
                     // fallback as the synchronous CloseSession. This runs on the
                     // caller's thread (the submission was rejected inline), and
                     // with the writer gone the exclusive lock is uncontended.
                     std::unique_lock<std::shared_mutex> lk(fs_lock_);
                     CloseSessionDescriptors(session);
                   }
                   EraseSession(session);
                   if (done) {
                     done();
                   }
                 });
}

void HacService::Dispatch(std::shared_ptr<Pending> p) {
  if (p->session == nullptr) {
    p->Fulfil(ErrorResponse(Error(ErrorCode::kInvalidArgument, "null session")));
    return;
  }
  if (p->req.op == ServerOp::kIntrospect) {
    // Introspection bypasses both queues and both shedding mechanisms: it reads
    // only the process-global metrics registry and trace ring (no fs lock, no
    // worker), so it stays answerable precisely when the service is overloaded
    // and the numbers matter most. Answered even while stopping.
    GM().introspect_requests.Inc();
    ServerResponse resp;
    resp.text = p->req.aux == "trace" ? TraceRing::Global().ExportChromeJson()
                                      : IntrospectStatsJson();
    p->Fulfil(std::move(resp));
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    p->Fulfil(Overloaded("service is stopping"));
    return;
  }

  if (IsReadOp(p->req.op)) {
    // Admission control: reject when the read backlog is at capacity.
    size_t queued = queued_reads_.load(std::memory_order_relaxed);
    do {
      if (queued >= options_.max_read_queue) {
        ++rejected_queue_full_;
        GM().rejected_queue_full.Inc();
        p->Fulfil(Overloaded("read queue full"));
        return;
      }
    } while (!queued_reads_.compare_exchange_weak(queued, queued + 1,
                                                  std::memory_order_relaxed));
    ++admitted_reads_;
    GM().admitted_reads.Inc();
    GM().read_queue_depth.Set(static_cast<int64_t>(queued + 1));
    if (!readers_.Submit([this, p] { RunRead(p); })) {
      queued_reads_.fetch_sub(1, std::memory_order_relaxed);
      p->Fulfil(Overloaded("reader pool stopped"));
    }
    return;
  }

  if (!write_queue_.TryPush(p)) {
    ++rejected_queue_full_;
    GM().rejected_queue_full.Inc();
    p->Fulfil(Overloaded(write_queue_.closed() ? "service is stopping"
                                               : "write queue full"));
    return;
  }
  ++admitted_writes_;
  GM().admitted_writes.Inc();
}

std::future<ServerResponse> HacService::Submit(Session* session, ServerRequest req) {
  auto promise = std::make_shared<std::promise<ServerResponse>>();
  std::future<ServerResponse> fut = promise->get_future();
  SubmitCallback(session, std::move(req), [promise](ServerResponse resp) {
    promise->set_value(std::move(resp));
  });
  return fut;
}

void HacService::SubmitCallback(Session* session, ServerRequest req,
                                ResponseCallback done) {
  auto p = std::make_shared<Pending>();
  p->req = std::move(req);
  p->session = session;
  p->callback = std::move(done);
  p->enqueued = std::chrono::steady_clock::now();
  Dispatch(std::move(p));
}

ServerResponse HacService::Call(Session* session, ServerRequest req) {
  return Submit(session, std::move(req)).get();
}

bool HacService::ShedIfExpired(Pending& p, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) {
    return false;
  }
  if (std::chrono::steady_clock::now() - p.enqueued <= timeout) {
    return false;
  }
  ++shed_deadline_;
  GM().shed_deadline.Inc();
  p.Fulfil(Overloaded("request exceeded its queue deadline"));
  return true;
}

void HacService::ReaderLockShared() {
  {
    std::unique_lock<std::mutex> gate(gate_mu_);
    gate_cv_.wait(gate, [this] { return !writer_pending_; });
  }
  fs_lock_.lock_shared();
}

void HacService::RunRead(std::shared_ptr<Pending> p) {
  const size_t queued = queued_reads_.fetch_sub(1, std::memory_order_relaxed);
  GM().read_queue_depth.Set(queued > 0 ? static_cast<int64_t>(queued - 1) : 0);
  if (ShedIfExpired(*p, options_.read_queue_timeout)) {
    return;
  }
  if (kMetricsCompiledIn) {
    GM().queue_wait_read_us.Record(WaitedUs(p->enqueued));
  }
  TraceSpan span(metric_names::kSpanServiceRead);
  span.Arg("op", static_cast<uint64_t>(p->req.op));
  const uint64_t t0 = kMetricsCompiledIn ? TraceRing::NowUs() : 0;
  ReaderLockShared();
  if (options_.read_hook) {
    options_.read_hook();
  }
  ServerResponse resp = ExecuteRead(p->session, p->req);
  fs_lock_.unlock_shared();
  if (kMetricsCompiledIn) {
    GM().service_time_read_us.Record(TraceRing::NowUs() - t0);
  }
  ++executed_reads_;
  GM().executed_reads.Inc();
  p->Fulfil(std::move(resp));
}

void HacService::WriterLoop() {
  std::vector<std::shared_ptr<Pending>> batch;
  for (;;) {
    batch.clear();
    auto first = write_queue_.PopFor(std::chrono::milliseconds(50));
    if (!first.has_value()) {
      if (write_queue_.closed()) {
        return;
      }
      continue;
    }
    batch.push_back(std::move(*first));
    // Drain whatever else is already queued, up to the batch cap: these mutations
    // were issued concurrently, so one BatchScope (one propagation pass) covers them.
    while (batch.size() < std::max<size_t>(1, options_.max_write_batch)) {
      auto next = write_queue_.TryPop();
      if (!next.has_value()) {
        break;
      }
      batch.push_back(std::move(*next));
    }

    // Shed requests that waited past the write deadline before taking the lock.
    std::vector<std::shared_ptr<Pending>> live;
    live.reserve(batch.size());
    for (auto& p : batch) {
      if (!ShedIfExpired(*p, options_.write_queue_timeout)) {
        live.push_back(std::move(p));
      }
    }
    if (live.empty()) {
      continue;
    }

    if (kMetricsCompiledIn) {
      for (const auto& p : live) {
        GM().queue_wait_write_us.Record(WaitedUs(p->enqueued));
      }
      GM().write_batch_size.Record(live.size());
    }
    TraceSpan span(metric_names::kSpanServiceWriteBatch);
    span.Arg("batch_size", live.size());

    {
      std::lock_guard<std::mutex> gate(gate_mu_);
      writer_pending_ = true;
    }
    std::vector<ServerResponse> responses(live.size());
    {
      std::unique_lock<std::shared_mutex> lk(fs_lock_);
      Result<void> commit = OkResult();
      {
        BatchScope scope(fs_);
        for (size_t i = 0; i < live.size(); ++i) {
          const uint64_t w0 = kMetricsCompiledIn ? TraceRing::NowUs() : 0;
          responses[i] = ExecuteWrite(live[i]->session, live[i]->req);
          if (kMetricsCompiledIn) {
            GM().service_time_write_us.Record(TraceRing::NowUs() - w0);
          }
        }
        commit = scope.Commit();
      }
      if (commit.ok() && options_.durable_store != nullptr) {
        // Group commit to the WAL: the whole batch becomes durable with one fsync.
        // Must succeed before any future below is fulfilled — an acknowledged write
        // is on disk (docs/DURABILITY.md).
        commit = options_.durable_store->CommitFrom(fs_);
      }
      if (!commit.ok()) {
        // The group flush failed: every op that thought it succeeded did not settle.
        for (auto& r : responses) {
          if (r.ok()) {
            r.error = commit.error();
          }
        }
      }
      if (commit.ok() && options_.durable_store != nullptr) {
        // Checkpoints run after the flush and the WAL commit so the persisted image
        // includes every mutation in this batch. kCheckpoint requests report the
        // checkpoint's own outcome; policy-triggered checkpoints fail soft (the WAL
        // already holds everything acknowledged).
        bool requested = false;
        for (const auto& p : live) {
          requested |= p->req.op == ServerOp::kCheckpoint;
        }
        if (requested || options_.durable_store->ShouldCheckpoint()) {
          auto ck = options_.durable_store->Checkpoint(fs_);
          if (!ck.ok()) {
            for (size_t i = 0; i < live.size(); ++i) {
              if (live[i]->req.op == ServerOp::kCheckpoint && responses[i].ok()) {
                responses[i].error = ck.error();
              }
            }
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> gate(gate_mu_);
      writer_pending_ = false;
    }
    gate_cv_.notify_all();

    ++write_batches_;
    GM().write_batches.Inc();
    uint64_t largest = largest_write_batch_.load(std::memory_order_relaxed);
    while (live.size() > largest &&
           !largest_write_batch_.compare_exchange_weak(largest, live.size(),
                                                       std::memory_order_relaxed)) {
    }
    // Group commit: futures complete only after the batch flush, so a client's next
    // read observes its own settled write.
    for (size_t i = 0; i < live.size(); ++i) {
      ++executed_writes_;
      GM().executed_writes.Inc();
      live[i]->Fulfil(std::move(responses[i]));
    }
  }
}

ServerResponse HacService::ExecuteRead(Session* session, const ServerRequest& req) {
  ServerResponse resp;
  const std::string abs = Absolutize(*session, req.path);
  switch (req.op) {
    case ServerOp::kPing:
      resp.text = "pong";
      break;
    case ServerOp::kReadDir: {
      auto r = fs_.ReadDir(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.entries = std::move(r).value();
      }
      break;
    }
    case ServerOp::kSearch: {
      auto r = fs_.Search(req.aux, abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.paths = std::move(r).value();
      }
      break;
    }
    case ServerOp::kStat:
    case ServerOp::kLstat: {
      auto r = req.op == ServerOp::kStat ? fs_.StatPath(abs) : fs_.LstatPath(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.st = r.value();
      }
      break;
    }
    case ServerOp::kReadFd: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      resp.text.resize(req.size);
      auto r = fs_.Read(sf.value()->hac_fd, resp.text.data(), req.size);
      if (!r.ok()) {
        resp.error = r.error();
        resp.text.clear();
      } else {
        resp.text.resize(r.value());
        resp.size = r.value();
      }
      break;
    }
    case ServerOp::kSeek: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      auto r = fs_.Seek(sf.value()->hac_fd, req.size);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.size = r.value();
      }
      break;
    }
    case ServerOp::kGetQuery: {
      auto r = fs_.GetQuery(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.text = std::move(r).value();
      }
      break;
    }
    case ServerOp::kGetLinkClasses: {
      auto r = fs_.GetLinkClasses(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.links = std::move(r).value();
      }
      break;
    }
    case ServerOp::kReadLink: {
      auto r = fs_.ReadLink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.text = std::move(r).value();
      }
      break;
    }
    case ServerOp::kStats:
      resp.stats = fs_.Stats();
      break;
    case ServerOp::kIntrospect:
      // Normally intercepted in Submit (it must not be queued or shed); handled
      // here too so direct ExecuteRead callers get the same answer.
      GM().introspect_requests.Inc();
      resp.text = req.aux == "trace" ? TraceRing::Global().ExportChromeJson()
                                     : IntrospectStatsJson();
      break;
    case ServerOp::kChdir: {
      auto st = fs_.StatPath(abs);
      if (!st.ok()) {
        resp.error = st.error();
        break;
      }
      if (st.value().type != NodeType::kDirectory) {
        resp.error = Error(ErrorCode::kNotADirectory, abs + " is not a directory");
        break;
      }
      // Session-local state; safe under the shared lock because one client drives
      // each session.
      session->cwd_ = abs;
      resp.text = abs;
      break;
    }
    case ServerOp::kOpenCursor: {
      // Fail malformed queries and missing/non-directory scopes at open, not at
      // the first fetch; dir() binding is still settled per fetch.
      if (!req.aux.empty()) {
        auto parsed = ParseQuery(req.aux);
        if (!parsed.ok()) {
          resp.error = parsed.error();
          break;
        }
      }
      auto st = fs_.StatPath(abs);
      if (!st.ok()) {
        resp.error = st.error();
        break;
      }
      if (st.value().type != NodeType::kDirectory) {
        resp.error = Error(ErrorCode::kNotADirectory, abs + " is not a directory");
        break;
      }
      ServerCursor cur;
      cur.is_search = !req.aux.empty();
      cur.path = abs;
      cur.query = req.aux;
      cur.token.epoch = fs_.MutationEpoch();
      cur.last_used = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lk(session->cursors_.mu);
        if (session->cursors_.OpenCount() >= options_.max_cursors_per_session) {
          resp.error = Error(
              ErrorCode::kOverloaded,
              "cursor table full (" +
                  std::to_string(options_.max_cursors_per_session) +
                  " per session); close or let the idle sweep harvest some");
          break;
        }
        resp.fd = session->cursors_.Open(std::move(cur));
      }
      GM().cursor_opened.Inc();
      GM().cursor_open.Add(1);
      break;
    }
    case ServerOp::kFetchPage: {
      // The table mutex is held across the whole fetch: the token update must
      // pair with the page it produced even when pipelined fetches overlap.
      std::lock_guard<std::mutex> lk(session->cursors_.mu);
      ServerCursor* cur = session->cursors_.Find(req.fd);
      if (cur == nullptr) {
        resp.error = Error(ErrorCode::kBadDescriptor,
                           "unknown cursor " + std::to_string(req.fd));
        break;
      }
      cur->last_used = std::chrono::steady_clock::now();
      const auto limit = static_cast<size_t>(req.size);  // 0 = facade default
      size_t delivered = 0, bytes = 0;
      if (cur->is_search) {
        auto r = fs_.SearchPage(cur->query, cur->path, &cur->token, limit, 0);
        if (!r.ok()) {
          resp.error = r.error();
        } else {
          SearchPageResult page = std::move(r).value();
          for (const std::string& p : page.paths) {
            bytes += p.size();
          }
          delivered = page.paths.size();
          resp.paths = std::move(page.paths);
          resp.size = page.has_more ? 1 : 0;
          cur->token = std::move(page.next);
          cur->exhausted = !page.has_more;
        }
      } else {
        auto r = fs_.ReadDirPage(cur->path, &cur->token, limit, 0);
        if (!r.ok()) {
          resp.error = r.error();
        } else {
          DirPageResult page = std::move(r).value();
          for (const DirEntry& e : page.entries) {
            bytes += e.name.size();
          }
          delivered = page.entries.size();
          resp.entries = std::move(page.entries);
          resp.size = page.has_more ? 1 : 0;
          cur->token = std::move(page.next);
          cur->exhausted = !page.has_more;
        }
      }
      if (!resp.ok()) {
        // Any fetch failure — stale epoch, deleted directory — auto-closes: the
        // client restarts with a fresh kOpenCursor (docs/API.md).
        if (resp.error.code == ErrorCode::kStaleCursor) {
          GM().cursor_stale.Inc();
        }
        session->cursors_.Close(req.fd);
        GM().cursor_closed.Inc();
        GM().cursor_open.Add(-1);
        break;
      }
      GM().cursor_page_entries.Record(delivered);
      GM().cursor_page_bytes.Record(bytes);
      break;
    }
    case ServerOp::kCloseCursor: {
      std::lock_guard<std::mutex> lk(session->cursors_.mu);
      if (!session->cursors_.Close(req.fd)) {
        resp.error = Error(ErrorCode::kBadDescriptor,
                           "unknown cursor " + std::to_string(req.fd));
        break;
      }
      GM().cursor_closed.Inc();
      GM().cursor_open.Add(-1);
      break;
    }
    default:
      resp.error = Error(ErrorCode::kInvalidArgument, "write op routed to read path");
      break;
  }
  return resp;
}

ServerResponse HacService::ExecuteWrite(Session* session, const ServerRequest& req) {
  ServerResponse resp;
  const std::string abs = Absolutize(*session, req.path);
  switch (req.op) {
    case ServerOp::kOpen: {
      auto r = fs_.Open(abs, req.flags);
      if (!r.ok()) {
        resp.error = r.error();
        break;
      }
      resp.fd = session->fds_.Allocate(SessionFile{r.value(), abs});
      break;
    }
    case ServerOp::kClose: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      Fd hac_fd = sf.value()->hac_fd;
      (void)session->fds_.Release(req.fd);
      auto r = fs_.Close(hac_fd);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kWriteFd: {
      auto sf = session->fds_.Get(req.fd);
      if (!sf.ok()) {
        resp.error = sf.error();
        break;
      }
      auto r = fs_.Write(sf.value()->hac_fd, req.aux.data(), req.aux.size());
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.size = r.value();
      }
      break;
    }
    case ServerOp::kWriteFile: {
      auto r = fs_.WriteFile(abs, req.aux);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kMkdir: {
      auto r = fs_.Mkdir(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSMkdir: {
      auto r = fs_.SMkdir(abs, req.aux);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSetQuery: {
      auto r = fs_.SetQuery(abs, req.aux);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kUnlink: {
      auto r = fs_.Unlink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kRmdir: {
      auto r = fs_.Rmdir(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kRename: {
      auto r = fs_.Rename(abs, Absolutize(*session, req.aux));
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSymlink: {
      // The target is kept verbatim (it may legitimately be relative).
      auto r = fs_.Symlink(req.aux, abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kPromoteLink: {
      auto r = fs_.PromoteLink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kDemoteLink: {
      auto r = fs_.DemoteLink(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kProhibit: {
      auto r = fs_.Prohibit(abs, Absolutize(*session, req.aux));
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kUnprohibit: {
      auto r = fs_.Unprohibit(abs, Absolutize(*session, req.aux));
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kReindex: {
      auto r = req.path.empty() ? fs_.Reindex() : fs_.ReindexSubtree(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSSync: {
      auto r = fs_.SSync(abs);
      if (!r.ok()) {
        resp.error = r.error();
      }
      break;
    }
    case ServerOp::kSAct: {
      auto r = fs_.SAct(abs);
      if (!r.ok()) {
        resp.error = r.error();
      } else {
        resp.paths = std::move(r).value();
      }
      break;
    }
    case ServerOp::kCloseSession:
      CloseSessionDescriptors(session);
      break;
    case ServerOp::kCheckpoint:
      // The actual checkpoint runs in WriterLoop after the batch flush + WAL commit
      // (the image must include this batch). Without a durable store it is a no-op.
      break;
    default:
      resp.error = Error(ErrorCode::kInvalidArgument, "read op routed to write path");
      break;
  }
  return resp;
}

void HacService::CloseSessionDescriptors(Session* session) {
  std::vector<std::pair<Fd, Fd>> open;  // session fd -> hac fd
  session->fds_.ForEachOpen(
      [&](Fd fd, const SessionFile& sf) { open.emplace_back(fd, sf.hac_fd); });
  for (const auto& [fd, hac_fd] : open) {
    (void)fs_.Close(hac_fd);
    (void)session->fds_.Release(fd);
  }
  // Cursors die with the session (counted as closes, not idle harvests).
  size_t cursors;
  {
    std::lock_guard<std::mutex> lk(session->cursors().mu);
    cursors = session->cursors().HarvestIdle(std::chrono::steady_clock::time_point::max());
  }
  if (cursors > 0) {
    GM().cursor_closed.Inc(cursors);
    GM().cursor_open.Add(-static_cast<int64_t>(cursors));
  }
}

size_t HacService::HarvestIdleCursors(Session* session,
                                      std::chrono::steady_clock::time_point cutoff) {
  size_t n;
  {
    std::lock_guard<std::mutex> lk(session->cursors().mu);
    n = session->cursors().HarvestIdle(cutoff);
  }
  if (n > 0) {
    GM().cursor_harvested.Inc(n);
    GM().cursor_closed.Inc(n);
    GM().cursor_open.Add(-static_cast<int64_t>(n));
  }
  return n;
}

void HacService::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    write_queue_.Close();
    if (writer_.joinable()) {
      writer_.join();
    }
    if (options_.durable_store != nullptr) {
      // Seal the store: persist any journal tail the writer left behind, then take
      // a final checkpoint so the next start recovers without WAL replay.
      (void)options_.durable_store->CommitFrom(fs_);
      (void)options_.durable_store->Checkpoint(fs_);
    }
    readers_.Stop();
  });
}

ServiceStats HacService::Stats() const {
  ServiceStats s;
  s.admitted_reads = admitted_reads_.load(std::memory_order_relaxed);
  s.admitted_writes = admitted_writes_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.executed_reads = executed_reads_.load(std::memory_order_relaxed);
  s.executed_writes = executed_writes_.load(std::memory_order_relaxed);
  s.write_batches = write_batches_.load(std::memory_order_relaxed);
  s.largest_write_batch = largest_write_batch_.load(std::memory_order_relaxed);
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hac
