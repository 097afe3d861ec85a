// TcpServer: the network front door of hacd. A listener thread accepts loopback/IPv4
// connections and hands each one Session plus a strict request→response ordering over
// the versioned wire protocol (src/server/wire.h). Accepted connections are sharded
// round-robin across a fixed pool of reactor threads (src/server/epoll_reactor.h),
// each owning an epoll instance: nonblocking sockets, request pipelining with in-order
// responses, one writev per writable wake, and high/low-water backpressure on slow
// readers.
//
// The transport adds NOTHING to the service semantics: every decoded request goes
// through HacService admission control (queue bounds, deadline shedding, the
// kIntrospect overload exemption) and write batching, exactly as for in-process
// clients. One connection == one session: relative paths resolve against the
// connection's cwd, descriptors are connection-private, and disconnect closes the
// session (releasing its descriptors) — the network analogue of ~ServiceClient.
//
// Protocol-error policy: a connection that sends an undecodable frame gets one final
// response frame carrying the decode error (kCorrupt, or kUnsupported for version
// skew / unknown ops) and is then closed — length-prefixed framing cannot resynchronize
// after header damage. The error frame is sequenced after the responses of every
// request decoded before the damage. kCloseSession is rejected with
// kInvalidArgument over the wire: a remote session's lifecycle is its connection.
#ifndef HAC_SERVER_TCP_SERVER_H_
#define HAC_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/server/epoll_reactor.h"
#include "src/server/hac_service.h"
#include "src/support/result.h"

namespace hac {

struct TcpServerOptions {
  std::string bind_address = "127.0.0.1";  // dotted-quad IPv4
  uint16_t port = 0;                       // 0 = ephemeral; read back via port()
  int backlog = 64;                        // listen(2) queue depth
  // Connections beyond this are accepted, sent one kOverloaded response frame, and
  // closed — the TCP analogue of a full admission queue. A reactor connection costs
  // only a registered fd plus buffers.
  size_t max_connections = 4096;
  // Reactor thread count; 0 = min(4, hardware_concurrency).
  size_t reactor_threads = 0;
  // Close a connection that completes no frame for this long while nothing is in
  // flight on it. 0 disables. Counted in TcpServerStats::idle_closes and
  // hac.server.idle_closes.
  uint32_t idle_timeout_ms = 0;
  // Backpressure: stop reading a connection whose unsent-response buffer exceeds
  // high_water; resume once it drains to low_water.
  size_t write_high_water = 1 << 20;    // 1 MiB
  size_t write_low_water = 128 << 10;   // 128 KiB
};

struct TcpServerStats {
  uint64_t connections_opened = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_rejected = 0;  // over max_connections
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t wire_errors = 0;  // undecodable frames (connection then closed)
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t idle_closes = 0;           // idle_timeout_ms harvests
  uint64_t backpressure_stalls = 0;   // reads paused at high water
};

class TcpServer {
 public:
  explicit TcpServer(HacService& service, TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens, and spawns the reactor pool and the accept loop. kUnsupported
  // if already started, kBusy if the address cannot be bound.
  Result<void> Start();

  // Stops accepting, shuts down every live connection (their sessions close), joins
  // all threads. Idempotent; the destructor calls it.
  void Stop();

  // The bound port (resolves option port 0 to the kernel-assigned one). 0 before
  // Start().
  uint16_t port() const { return port_; }
  size_t ActiveConnections() const;
  TcpServerStats Stats() const;

 private:
  void AcceptLoop();
  // Answers an over-cap connection with one kOverloaded frame, then closes it.
  void Reject(int fd);

  HacService& service_;
  const TcpServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_ = false;
  std::once_flag stop_once_;
  bool started_ = false;

  // The reactor shards; connections are adopted round-robin.
  std::vector<std::unique_ptr<EpollReactor>> reactors_;
  size_t next_reactor_ = 0;

  // Written by the acceptor and every reactor; Stats() and the accept-time cap
  // read it.
  TransportCounters counters_;
};

}  // namespace hac

#endif  // HAC_SERVER_TCP_SERVER_H_
