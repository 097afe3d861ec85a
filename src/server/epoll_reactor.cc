#include "src/server/epoll_reactor.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/server/hac_service.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {

namespace {

struct ReactorMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& bytes_in = reg.GetCounter(metric_names::kServerBytesIn);
  Counter& bytes_out = reg.GetCounter(metric_names::kServerBytesOut);
  Counter& connections_closed = reg.GetCounter(metric_names::kServerConnectionsClosed);
  Counter& wire_errors = reg.GetCounter(metric_names::kServerWireErrors);
  Counter& epoll_wakeups = reg.GetCounter(metric_names::kServerEpollWakeups);
  Counter& backpressure_stalls = reg.GetCounter(metric_names::kServerBackpressureStalls);
  Counter& idle_closes = reg.GetCounter(metric_names::kServerIdleCloses);
  Gauge& open_connections = reg.GetGauge(metric_names::kServerOpenConnections);
  Histogram& frames_per_wake = reg.GetHistogram(metric_names::kServerFramesPerWake);
  Histogram& writev_frames = reg.GetHistogram(metric_names::kServerWritevFrames);
};

ReactorMetrics& RM() {
  static ReactorMetrics* m = new ReactorMetrics();
  return *m;
}

// One sendmsg covers at most this many response frames; a queue deeper than this
// simply takes another writable wake.
constexpr int kMaxIov = 64;

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

}  // namespace

EpollReactor::EpollReactor(ReactorConfig config) : config_(std::move(config)) {}

EpollReactor::~EpollReactor() {
  RequestStop();
  Join();
}

Result<void> EpollReactor::Start() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    return Error(ErrorCode::kBusy, "epoll_create1 failed");
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epfd_);
    epfd_ = -1;
    return Error(ErrorCode::kBusy, "eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr tags the wake eventfd
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] { Run(); });
  return OkResult();
}

void EpollReactor::Adopt(int fd) {
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    adopt_pending_.push_back(fd);
  }
  Wake();
}

void EpollReactor::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  Wake();
}

void EpollReactor::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
  // A service worker that posted its completion before the reactor exited may
  // still be inside Wake(); wake_mu_ makes its eventfd write and this close
  // mutually exclusive. The completion itself was consumed — only the (now
  // moot) wake signal races the teardown.
  std::lock_guard<std::mutex> lk(wake_mu_);
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epfd_ >= 0) {
    ::close(epfd_);
    epfd_ = -1;
  }
}

void EpollReactor::Wake() {
  std::lock_guard<std::mutex> lk(wake_mu_);
  if (wake_fd_ < 0) {
    return;  // already joined and closed; nothing left to wake
  }
  uint64_t one = 1;
  ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  (void)rc;  // EAGAIN means the counter is already nonzero: a wake is pending
}

int EpollReactor::TickTimeoutMs() const {
  if (stopping_.load(std::memory_order_acquire)) {
    return 10;
  }
  if (config_.idle_timeout_ms > 0) {
    uint32_t quarter = config_.idle_timeout_ms / 4;
    if (quarter < 10) quarter = 10;
    if (quarter > 100) quarter = 100;
    return static_cast<int>(quarter);
  }
  return 100;
}

void EpollReactor::Run() {
  std::vector<epoll_event> events(128);
  for (;;) {
    int n = ::epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                         TickTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll fd gone: unrecoverable
    }
    if (n > 0) {
      RM().epoll_wakeups.Inc();
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      HandleEvent(static_cast<Conn*>(events[i].data.ptr), events[i].events);
    }
    AdoptPending();
    DrainCompletions();
    if (stopping_.load(std::memory_order_acquire) && !shutdown_issued_) {
      shutdown_issued_ = true;
      for (auto& [fd, c] : conns_) {
        // Drop the peer: pending responses are not deliverable once the server
        // stops. In-flight service work still completes; its responses are
        // discarded at drain.
        ::shutdown(c->fd, SHUT_RDWR);
        c->peer_eof = true;
        c->write_dead = true;
      }
    }
    SweepIdle();
    ReapClosable();
    // Exit requires posters_ == 0 too: a service worker may have handed off its
    // completion (drained above, conn reaped) yet still be inside
    // PostCompletion about to touch the wake eventfd. With no conns left there
    // can be no new posters, so this drains to zero within a tick.
    if (stopping_.load(std::memory_order_acquire) && conns_.empty() &&
        posters_.load(std::memory_order_acquire) == 0) {
      std::lock_guard<std::mutex> lk(adopt_mu_);
      if (adopt_pending_.empty()) {
        break;
      }
    }
  }
  // Late adoptions (acceptor already stopped, but be defensive): just close.
  std::lock_guard<std::mutex> lk(adopt_mu_);
  for (int fd : adopt_pending_) {
    ::close(fd);
    config_.counters->connections_closed.fetch_add(1, std::memory_order_relaxed);
    RM().connections_closed.Inc();
    RM().open_connections.Add(-1);
    config_.counters->active_connections.fetch_sub(1, std::memory_order_relaxed);
  }
  adopt_pending_.clear();
  // epfd_/wake_fd_ stay open: RequestStop() may still be writing the eventfd
  // concurrently with this exit path. Join() closes both after the join, when
  // no other thread can hold the descriptors.
}

void EpollReactor::AdoptPending() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    fds.swap(adopt_pending_);
  }
  for (int fd : fds) {
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      config_.counters->connections_closed.fetch_add(1, std::memory_order_relaxed);
      RM().connections_closed.Inc();
      RM().open_connections.Add(-1);
      config_.counters->active_connections.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    SetNonBlocking(fd);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->session = config_.service->OpenSession();
    conn->last_frame = std::chrono::steady_clock::now();
    Conn* raw = conn.get();
    conns_.emplace(fd, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = raw;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void EpollReactor::HandleEvent(Conn* c, uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    // Peer is gone both ways; any buffered output is undeliverable.
    c->peer_eof = true;
    c->write_dead = true;
    PumpResponses(c);  // discard any releasable responses
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    Flush(c);
  }
  if ((events & EPOLLIN) != 0) {
    HandleReadable(c);
  }
}

void EpollReactor::HandleReadable(Conn* c) {
  if (c->fatal || c->peer_eof || c->reading_paused) {
    return;
  }
  uint8_t buf[64 * 1024];
  bool eof = false;
  for (;;) {
    ssize_t r = ::recv(c->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      config_.counters->bytes_in.fetch_add(static_cast<uint64_t>(r),
                                           std::memory_order_relaxed);
      RM().bytes_in.Inc(static_cast<uint64_t>(r));
      c->decoder.Feed(buf, static_cast<size_t>(r));
      continue;  // level-triggered: read until EAGAIN so one wake drains the socket
    }
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    eof = true;  // hard socket error: same path as peer close
    break;
  }

  // Decode EVERY complete frame buffered by this wake and submit each immediately:
  // this is what lets pipelined requests from one connection batch in the service's
  // group commit instead of serializing on the socket round-trip.
  uint64_t frames_this_wake = 0;
  for (;;) {
    auto next = c->decoder.Next();
    if (!next.ok()) {
      WireError(c, next.error());
      break;
    }
    if (!next.value().has_value()) {
      break;
    }
    FrameDecoder::Frame frame = std::move(*next.value());
    config_.counters->frames_in.fetch_add(1, std::memory_order_relaxed);
    ++frames_this_wake;
    c->last_frame = std::chrono::steady_clock::now();
    if (frame.kind != FrameKind::kRequest) {
      RecycleBuffer(std::move(frame.payload));
      WireError(c, Error(ErrorCode::kCorrupt, "response frame sent to server"));
      break;
    }
    auto req = DecodeRequestPayload(frame.payload);
    RecycleBuffer(std::move(frame.payload));
    if (!req.ok()) {
      WireError(c, req.error());
      break;
    }
    if (req.value().op == ServerOp::kCloseSession) {
      ServerResponse resp;
      resp.error =
          Error(ErrorCode::kInvalidArgument, "session lifecycle is connection-bound");
      uint64_t seq = c->next_seq++;
      c->reorder.emplace(seq, std::move(resp));
      continue;
    }
    uint64_t seq = c->next_seq++;
    ++c->inflight;
    config_.service->SubmitCallback(
        c->session, std::move(req).value(),
        [this, c, seq](ServerResponse resp) { PostCompletion(c, seq, std::move(resp)); });
  }
  if (frames_this_wake > 0) {
    RM().frames_per_wake.Record(frames_this_wake);
  }
  if (eof) {
    c->peer_eof = true;
  }
  PumpResponses(c);
  Flush(c);
}

void EpollReactor::WireError(Conn* c, const Error& err) {
  config_.counters->wire_errors.fetch_add(1, std::memory_order_relaxed);
  RM().wire_errors.Inc();
  // The error is sequenced like a response so every request decoded before the
  // damage still answers first — then the connection closes (framing cannot
  // resynchronize after header damage).
  ServerResponse resp;
  resp.error = err;
  c->reorder.emplace(c->next_seq++, std::move(resp));
  c->fatal = true;
  if (!c->reading_paused) {
    c->reading_paused = true;  // never re-armed: fatal conns close once drained
    UpdateInterest(c);
  }
}

void EpollReactor::PostCompletion(Conn* c, uint64_t seq, ServerResponse resp) {
  // posters_ keeps the reactor thread (and therefore ~EpollReactor) from
  // finishing while this service-worker call is still on the stack: the
  // completion below hands the *response* off, but this function keeps touching
  // reactor state (the wake eventfd) after the reactor may have consumed it.
  // Incremented before the push, so whenever the reactor has drained everything
  // and sees posters_ == 0, every poster has fully returned.
  posters_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lk(comp_mu_);
    completions_.push_back(Completion{c, seq, std::move(resp)});
  }
  Wake();
  posters_.fetch_sub(1, std::memory_order_acq_rel);
}

void EpollReactor::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lk(comp_mu_);
    batch.swap(completions_);
  }
  if (batch.empty()) {
    return;
  }
  std::vector<Conn*> touched;
  for (auto& comp : batch) {
    Conn* c = comp.conn;
    --c->inflight;
    c->reorder.emplace(comp.seq, std::move(comp.resp));
    if (touched.empty() || touched.back() != c) {
      touched.push_back(c);
    }
  }
  for (Conn* c : touched) {
    PumpResponses(c);
    Flush(c);
  }
}

void EpollReactor::PumpResponses(Conn* c) {
  while (!c->reorder.empty() && c->reorder.begin()->first == c->next_send) {
    auto it = c->reorder.begin();
    if (!c->write_dead) {
      std::vector<uint8_t> frame = EncodeResponseFrame(it->second);
      c->out_bytes += frame.size();
      c->outq.push_back(std::move(frame));
    }
    c->reorder.erase(it);
    ++c->next_send;
  }
  if (!c->reading_paused && !c->fatal && c->out_bytes > config_.write_high_water) {
    PauseReading(c);
  }
}

void EpollReactor::Flush(Conn* c) {
  if (c->write_dead) {
    return;
  }
  while (c->out_bytes > 0) {
    iovec iov[kMaxIov];
    int cnt = 0;
    size_t off = c->out_head_off;
    for (auto& frame : c->outq) {
      if (cnt == kMaxIov) {
        break;
      }
      iov[cnt].iov_base = frame.data() + off;
      iov[cnt].iov_len = frame.size() - off;
      off = 0;
      ++cnt;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<size_t>(cnt);
    ssize_t n = ::sendmsg(c->fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_write) {
          c->want_write = true;
          UpdateInterest(c);
        }
        return;
      }
      // Peer unreachable (EPIPE/ECONNRESET/...): drop everything still queued.
      c->write_dead = true;
      for (auto& frame : c->outq) {
        RecycleBuffer(std::move(frame));
      }
      c->outq.clear();
      c->out_bytes = 0;
      c->out_head_off = 0;
      PumpResponses(c);  // discard responses the reorder buffer can now release
      return;
    }
    RM().writev_frames.Record(static_cast<uint64_t>(cnt));
    config_.counters->bytes_out.fetch_add(static_cast<uint64_t>(n),
                                          std::memory_order_relaxed);
    RM().bytes_out.Inc(static_cast<uint64_t>(n));
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      std::vector<uint8_t>& front = c->outq.front();
      size_t avail = front.size() - c->out_head_off;
      if (left >= avail) {
        left -= avail;
        c->out_bytes -= avail;
        c->out_head_off = 0;
        config_.counters->frames_out.fetch_add(1, std::memory_order_relaxed);
        RecycleBuffer(std::move(front));
        c->outq.pop_front();
      } else {
        c->out_head_off += left;
        c->out_bytes -= left;
        left = 0;
      }
    }
  }
  if (c->want_write) {
    c->want_write = false;
    UpdateInterest(c);
  }
  if (c->reading_paused && !c->fatal && c->out_bytes <= config_.write_low_water) {
    ResumeReading(c);
  }
}

void EpollReactor::UpdateInterest(Conn* c) {
  epoll_event ev{};
  ev.events = (c->reading_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (c->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = c;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
}

void EpollReactor::PauseReading(Conn* c) {
  c->reading_paused = true;
  UpdateInterest(c);
  config_.counters->backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
  RM().backpressure_stalls.Inc();
}

void EpollReactor::ResumeReading(Conn* c) {
  c->reading_paused = false;
  UpdateInterest(c);
  // Bytes may already be buffered in the decoder from the read that tripped the
  // high-water mark; level-triggered EPOLLIN only fires for NEW socket bytes, so
  // drain the decoder now rather than waiting on the peer.
  HandleReadable(c);
}

void EpollReactor::SweepIdle() {
  if (config_.idle_timeout_ms == 0) {
    return;
  }
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  for (auto& [fd, c] : conns_) {
    if (c->peer_eof || c->fatal || c->write_dead) {
      continue;
    }
    // Cursors age out on the same clock as connections, but independently of
    // them: a connection kept warm by other traffic can still strand cursors
    // it stopped fetching from (CursorTable, docs/API.md "Cursor ops").
    if (c->session != nullptr) {
      HacService::HarvestIdleCursors(c->session, now - limit);
    }
    if (c->inflight > 0 || c->out_bytes > 0 || !c->reorder.empty()) {
      continue;  // work pending: the connection is not idle
    }
    if (now - c->last_frame < limit) {
      continue;
    }
    config_.counters->idle_closes.fetch_add(1, std::memory_order_relaxed);
    RM().idle_closes.Inc();
    ::shutdown(c->fd, SHUT_RDWR);
    c->peer_eof = true;
    c->write_dead = true;
  }
}

bool EpollReactor::Closable(const Conn& c) const {
  if (c.inflight > 0) {
    return false;  // service callbacks still reference this Conn
  }
  if (c.write_dead) {
    return true;
  }
  // Clean teardown (peer EOF or sequenced wire error): only after every accepted
  // request has answered and the socket drained.
  return (c.peer_eof || c.fatal) && c.reorder.empty() && c.out_bytes == 0;
}

void EpollReactor::CloseConn(Conn* c) {
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  for (auto& frame : c->outq) {
    RecycleBuffer(std::move(frame));
  }
  c->outq.clear();
  // Session close rides the service's write queue; no reactor blocking. The Conn
  // itself is gone by the time the callback fires, which is fine: the callback
  // captures nothing but the service.
  config_.service->CloseSessionAsync(c->session);
  c->session = nullptr;
  config_.counters->connections_closed.fetch_add(1, std::memory_order_relaxed);
  RM().connections_closed.Inc();
  RM().open_connections.Add(-1);
  config_.counters->active_connections.fetch_sub(1, std::memory_order_relaxed);
}

void EpollReactor::ReapClosable() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (Closable(*it->second)) {
      CloseConn(it->second.get());
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace hac
