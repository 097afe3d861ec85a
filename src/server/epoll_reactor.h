// EpollReactor: one event-loop thread owning an epoll instance and a shard of
// hacd's TCP connections (TcpServer runs a fixed pool of them). A reactor
// multiplexes its whole shard over nonblocking sockets:
//
//   * Pipelining — every complete frame available at a recv wake is decoded and
//     submitted to HacService::SubmitCallback immediately; responses complete on
//     worker threads, are handed back through the reactor's completion queue
//     (eventfd wake), and a per-connection sequence-number reorder buffer restores
//     strict request order before anything hits the socket.
//   * Vectored write coalescing — all response frames pending on a connection are
//     sent with one sendmsg(iovec) per writable wake, so a group-commit batch that
//     completes N pipelined writes together costs one syscall, not N
//     (hac.server.writev_frames histogram).
//   * Edge-level backpressure — a connection whose unsent-response buffer exceeds
//     write_high_water stops being read (EPOLLIN deregistered) until the buffer
//     drains below write_low_water, so a slow reader bounds its own memory
//     (hac.server.backpressure_stalls) instead of growing the server's heap.
//   * Idle harvesting — with idle_timeout_ms set, a connection that completes no
//     frame within the window (and has nothing in flight) is closed
//     (hac.server.idle_closes).
//
// Threading contract: all connection state is owned by the reactor thread. The
// only cross-thread surfaces are Adopt() (acceptor -> reactor handoff queue),
// the completion queue (service worker threads -> reactor), and the stop flag;
// each is a mutex-guarded vector plus an eventfd wake. Service callbacks never
// touch connection state directly — they enqueue and wake.
#ifndef HAC_SERVER_EPOLL_REACTOR_H_
#define HAC_SERVER_EPOLL_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/server/hac_service.h"
#include "src/server/wire.h"
#include "src/support/result.h"

namespace hac {

// Transport counters owned by TcpServer and bumped by its acceptor and every
// reactor, so TcpServer::Stats() is one coherent view across the shards.
struct TransportCounters {
  std::atomic<uint64_t> connections_opened = 0, connections_closed = 0,
                        connections_rejected = 0, frames_in = 0, frames_out = 0,
                        wire_errors = 0, bytes_in = 0, bytes_out = 0,
                        idle_closes = 0, backpressure_stalls = 0;
  // Live connections: the acceptor's connection cap reads this.
  std::atomic<size_t> active_connections = 0;
};

struct ReactorConfig {
  HacService* service = nullptr;
  TransportCounters* counters = nullptr;
  size_t write_high_water = 1 << 20;
  size_t write_low_water = 128 << 10;
  uint32_t idle_timeout_ms = 0;
};

class EpollReactor {
 public:
  explicit EpollReactor(ReactorConfig config);
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  // Creates the epoll instance + wake eventfd and spawns the loop thread.
  Result<void> Start();

  // Hands an accepted, admitted socket to this reactor (acceptor thread). The
  // reactor makes it nonblocking, opens its session, and registers it.
  void Adopt(int fd);

  // Begins shutdown: every connection is shut down, pending service completions
  // are drained (their responses dropped), then the loop thread exits. The
  // service must still be running so in-flight callbacks can fire.
  void RequestStop();
  void Join();

 private:
  struct Conn {
    int fd = -1;
    Session* session = nullptr;
    FrameDecoder decoder;
    // Request-order bookkeeping: seq assigned at decode, responses released to
    // the socket only in seq order.
    uint64_t next_seq = 0;   // next request sequence number to assign
    uint64_t next_send = 0;  // sequence number the socket is waiting for
    std::map<uint64_t, ServerResponse> reorder;
    size_t inflight = 0;  // submitted to the service, completion not yet drained
    // Write side: encoded frames pending on the socket.
    std::deque<std::vector<uint8_t>> outq;
    size_t out_head_off = 0;  // bytes of outq.front() already sent
    size_t out_bytes = 0;     // total unsent bytes across outq
    bool want_write = false;  // EPOLLOUT currently registered
    bool reading_paused = false;  // backpressure: EPOLLIN deregistered
    bool peer_eof = false;    // peer half-closed; finish responses, then close
    bool fatal = false;       // wire error queued as final response; then close
    bool write_dead = false;  // peer unreachable; drop responses, close at drain
    std::chrono::steady_clock::time_point last_frame;
  };

  struct Completion {
    Conn* conn = nullptr;
    uint64_t seq = 0;
    ServerResponse resp;
  };

  void Run();
  int TickTimeoutMs() const;
  void Wake();
  void AdoptPending();
  void DrainCompletions();
  void HandleReadable(Conn* c);
  void HandleEvent(Conn* c, uint32_t events);
  // Queues the decode error as the connection's final, order-preserving response.
  void WireError(Conn* c, const Error& err);
  // Called from service worker threads (or inline): enqueue + wake.
  void PostCompletion(Conn* c, uint64_t seq, ServerResponse resp);
  // Moves in-order responses from the reorder buffer into the write queue.
  void PumpResponses(Conn* c);
  void Flush(Conn* c);
  void UpdateInterest(Conn* c);
  void PauseReading(Conn* c);
  void ResumeReading(Conn* c);
  void SweepIdle();
  bool Closable(const Conn& c) const;
  void CloseConn(Conn* c);
  void ReapClosable();

  ReactorConfig config_;
  int epfd_ = -1;
  int wake_fd_ = -1;  // guarded by wake_mu_ against Wake()/Join() teardown races
  std::thread thread_;
  std::atomic<bool> stopping_ = false;
  bool shutdown_issued_ = false;

  // Serializes eventfd writes against Join()'s close: completion posters (service
  // worker threads) may call Wake() after the reactor thread has already exited.
  std::mutex wake_mu_;

  // Service-worker threads currently inside PostCompletion. The reactor thread
  // refuses to exit (and so Join/destruction cannot proceed) until this is zero,
  // because a poster keeps using reactor state after its completion is consumed.
  std::atomic<int> posters_{0};

  std::mutex adopt_mu_;
  std::vector<int> adopt_pending_;

  std::mutex comp_mu_;
  std::vector<Completion> completions_;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
};

}  // namespace hac

#endif  // HAC_SERVER_EPOLL_REACTOR_H_
