// Service-layer throughput: closed-loop clients against one HacService.
//
// For each client-thread count (1, 2, 4, 8) and each request mix (read-heavy 95/5,
// mixed 70/30), N threads each run a client issuing requests back-to-back over a
// pre-built semantic corpus. Reported per row: aggregate ops/sec, request-latency
// p50/p95/p99, and the writer's observed mean batch size (the write-batching payoff:
// concurrent mutations share one propagation pass, so mean batch size grows with
// contention even when cores do not).
//
// --transport=inprocess (default) drives ServiceClient directly;
// --transport=tcp starts a loopback TcpServer and gives every thread its own
// RemoteServiceClient, so a row's delta vs the in-process row is the full wire
// cost (encode + loopback round-trip + decode); --transport=both runs both.
//
// --hac_json prints the same rows as a JSON document (see EXPERIMENTS.md), including
// the read-heavy 1->8 thread scaling factor. Scaling on a single-core host measures
// only lock/queue overhead; see the EXPERIMENTS.md discussion before comparing.
//
// --connections[=1,8,64,512] switches to connection scaling over the epoll
// TcpServer: for each connection count, C raw-frame clients each keep a window of
// pipelined write-heavy requests in flight. Reported per row: ops/sec, p50/p95/p99,
// the writev_frames mean (responses coalesced per sendmsg — the group-commit payoff
// crossing the wire), and the final StateDigest. With --hac_json this is the
// bench_server_epoll_gate: every request must be answered ok, the final digest must
// equal that of a serial replay of the same writes straight into HacFileSystem (a
// reference that shares no transport or service code), and the writev_frames mean at
// 64 connections must exceed 1.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/support/metric_names.h"
#include "src/support/metrics.h"

#include "bench/bench_util.h"
#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_client.h"
#include "src/server/tcp_server.h"
#include "src/server/wire.h"
#include "src/tools/fsck.h"
#include "src/workload/corpus.h"

namespace hac {
namespace {

struct MixSpec {
  const char* name;
  int write_percent;  // of requests
};

enum class Transport { kInProcess, kTcp };

const char* TransportName(Transport t) {
  return t == Transport::kInProcess ? "inprocess" : "tcp";
}

struct RunResult {
  int threads = 0;
  uint64_t total_ops = 0;
  double wall_ms = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  uint64_t executed_writes = 0;
  uint64_t write_batches = 0;
  double mean_batch = 0;
};

std::unique_ptr<HacFileSystem> BuildCorpusFs() {
  auto fs = std::make_unique<HacFileSystem>();
  CorpusOptions opts;
  opts.num_files = PaperScale() ? 2000 : 200;
  opts.dirs = 8;
  opts.words_per_file = PaperScale() ? 200 : 60;
  if (!GenerateCorpus(*fs, opts).ok() || !fs->Reindex().ok()) {
    std::abort();
  }
  const auto& topics = CorpusTopics();
  for (size_t t = 0; t < 4 && t < topics.size(); ++t) {
    if (!fs->SMkdir("/topic" + std::to_string(t), topics[t]).ok()) {
      std::abort();
    }
  }
  return fs;
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

RunResult RunClosedLoop(int threads, const MixSpec& mix, int ops_per_thread,
                        Transport transport) {
  auto fs = BuildCorpusFs();
  auto d0 = fs->ReadDir("/corpus/d0");
  if (!d0.ok() || d0.value().empty()) {
    std::abort();
  }
  const std::string stat_target = "/corpus/d0/" + d0.value().front().name;
  ServiceOptions sopts;
  sopts.read_workers = static_cast<size_t>(threads);
  HacService service(*fs, sopts);
  std::unique_ptr<TcpServer> server;
  if (transport == Transport::kTcp) {
    server = std::make_unique<TcpServer>(service);
    if (!server->Start().ok()) {
      std::abort();
    }
  }
  auto new_client = [&]() -> std::unique_ptr<ClientApi> {
    if (transport == Transport::kInProcess) {
      return std::make_unique<ServiceClient>(service);
    }
    auto remote = std::make_unique<RemoteServiceClient>();
    if (!remote->Connect("127.0.0.1", server->port()).ok()) {
      std::abort();
    }
    return remote;
  };
  const auto& topics = CorpusTopics();

  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  BenchTimer wall;
  wall.Start();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<ClientApi> client_ptr = new_client();
      ClientApi& client = *client_ptr;
      auto& lat = latencies[static_cast<size_t>(t)];
      lat.reserve(static_cast<size_t>(ops_per_thread));
      uint64_t rng = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(t);
      for (int i = 0; i < ops_per_thread; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int pick = static_cast<int>((rng >> 33) % 100);
        auto start = std::chrono::steady_clock::now();
        if (pick < mix.write_percent) {
          // Write: refresh this thread's private scratch file (distinct paths keep
          // concurrent mutations commuting, as the stress test requires).
          std::string path = "/corpus/d" + std::to_string(t % 8) + "/bench_t" +
                             std::to_string(t) + ".txt";
          if (!client.WriteFile(path, "corpus " + topics[static_cast<size_t>(i) %
                                                         topics.size()])
                   .ok()) {
            std::abort();
          }
        } else if (pick % 3 == 0) {
          if (!client.Search(topics[(rng >> 20) % topics.size()]).ok()) {
            std::abort();
          }
        } else if (pick % 3 == 1) {
          if (!client.ReadDir("/topic" + std::to_string((rng >> 20) % 4)).ok()) {
            std::abort();
          }
        } else {
          if (!client.StatPath(stat_target).ok()) {
            std::abort();
          }
        }
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  RunResult r;
  r.wall_ms = wall.StopMs();
  r.threads = threads;
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  r.total_ops = all.size();
  r.ops_per_sec = r.wall_ms <= 0 ? 0 : static_cast<double>(r.total_ops) * 1000.0 / r.wall_ms;
  r.p50_us = Percentile(all, 0.50);
  r.p95_us = Percentile(all, 0.95);
  r.p99_us = Percentile(all, 0.99);
  auto stats = service.Stats();
  r.executed_writes = stats.executed_writes;
  r.write_batches = stats.write_batches;
  r.mean_batch = stats.write_batches == 0
                     ? 0
                     : static_cast<double>(stats.executed_writes) /
                           static_cast<double>(stats.write_batches);
  return r;
}

// ---------------------------------------------------------------------------
// Connection-scaling comparison (--connections): raw pipelined clients.
// ---------------------------------------------------------------------------

// A raw loopback connection that keeps a window of request frames in flight —
// RemoteServiceClient is strict call/response, so pipelining needs its own client.
class PipelinedBenchConn {
 public:
  explicit PipelinedBenchConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~PipelinedBenchConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool ok() const { return fd_ >= 0; }

  bool SendRequest(const ServerRequest& req) {
    std::vector<uint8_t> frame = EncodeRequestFrame(req);
    size_t sent = 0;
    while (sent < frame.size()) {
      ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    RecycleBuffer(std::move(frame));
    return true;
  }

  // Blocks until one response frame decodes; false on disconnect or wire damage.
  bool ReadResponse() {
    for (;;) {
      auto next = decoder_.Next();
      if (!next.ok()) {
        return false;
      }
      if (next.value().has_value()) {
        auto resp = DecodeResponsePayload(next.value()->payload);
        return resp.ok() && resp.value().ok();
      }
      uint8_t buf[16384];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return false;
      }
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

struct ScaleResult {
  int connections = 0;
  uint64_t total_ops = 0;
  double wall_ms = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double writev_mean = 0;      // mean response frames per sendmsg
  double bytes_per_frame = 0;  // server bytes_out per answered request
  uint64_t digest = 0;         // StateDigest of the final fs (inode-free)
  uint64_t replay_digest = 0;  // StateDigest of the serial replay (SerialReplayDigest)
  bool clean = true;           // every request sent, answered, and ok()
};

// Connection c writes only ScalePath(c), and its op i writes ScaleContent(i): the
// writes commute across connections, so the final state — and therefore the digest
// — is fixed by the op sequence, whatever order the transport delivered it in.
std::string ScalePath(int c) {
  return "/corpus/d" + std::to_string(c % 8) + "/scale_c" + std::to_string(c) + ".txt";
}

std::string ScaleContent(int i) {
  const auto& topics = CorpusTopics();
  return "scale " + topics[static_cast<size_t>(i) % topics.size()] + " op " +
         std::to_string(i);
}

int OpsPerConn(int connections, int total_ops) {
  return std::max(1, total_ops / connections);
}

// The gate's reference: the same per-connection WriteFile sequences applied in op
// order directly to a fresh corpus through HacFileSystem — no wire, reactor or
// service in the path.
uint64_t SerialReplayDigest(int connections, int total_ops) {
  auto fs = BuildCorpusFs();
  const int ops_per_conn = OpsPerConn(connections, total_ops);
  for (int c = 0; c < connections; ++c) {
    for (int i = 0; i < ops_per_conn; ++i) {
      if (!fs->WriteFile(ScalePath(c), ScaleContent(i)).ok()) {
        std::abort();
      }
    }
  }
  return StateDigest(*fs);
}

// C connections, each a closed window of kWindow pipelined writes.
ScaleResult RunConnectionScale(int connections, int total_ops) {
  constexpr int kWindow = 16;
  auto fs = BuildCorpusFs();
  ServiceOptions sopts;
  sopts.read_workers = 4;
  // This run measures the transport, not admission control: size the write queue
  // for the full pipelined burst (512 conns x 16-deep windows) and disable the
  // shed deadline, so every op lands and the final digest is deterministic.
  sopts.max_write_queue = 16384;
  sopts.write_queue_timeout = std::chrono::milliseconds(0);
  HacService service(*fs, sopts);
  TcpServerOptions topts;
  topts.backlog = 1024;  // a 512-way connect burst must not overflow SYN queue
  TcpServer server(service, topts);
  if (!server.Start().ok()) {
    std::abort();
  }
  const int ops_per_conn = OpsPerConn(connections, total_ops);

  std::vector<std::vector<double>> latencies(static_cast<size_t>(connections));
  std::vector<char> clean(static_cast<size_t>(connections), 1);
  Histogram& writev =
      MetricsRegistry::Global().GetHistogram(metric_names::kServerWritevFrames);
  const uint64_t wv_count0 = writev.Count();
  const uint64_t wv_sum0 = writev.Sum();
  Counter& bytes_out =
      MetricsRegistry::Global().GetCounter(metric_names::kServerBytesOut);
  const uint64_t bytes_out0 = bytes_out.Value();

  std::vector<std::thread> clients;
  BenchTimer wall;
  wall.Start();
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      PipelinedBenchConn conn(server.port());
      auto& lat = latencies[static_cast<size_t>(c)];
      if (!conn.ok()) {
        clean[static_cast<size_t>(c)] = 0;
        return;
      }
      lat.reserve(static_cast<size_t>(ops_per_conn));
      ServerRequest req;
      req.op = ServerOp::kWriteFile;
      req.path = ScalePath(c);
      int sent = 0, done = 0;
      std::deque<std::chrono::steady_clock::time_point> in_flight;
      auto push_one = [&]() -> bool {
        req.aux = ScaleContent(sent);
        in_flight.push_back(std::chrono::steady_clock::now());
        ++sent;
        return conn.SendRequest(req);
      };
      while (sent < ops_per_conn && sent < kWindow) {
        if (!push_one()) {
          clean[static_cast<size_t>(c)] = 0;
          return;
        }
      }
      while (done < ops_per_conn) {
        if (!conn.ReadResponse()) {
          clean[static_cast<size_t>(c)] = 0;
          return;
        }
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - in_flight.front())
                          .count());
        in_flight.pop_front();
        ++done;
        if (sent < ops_per_conn && !push_one()) {
          clean[static_cast<size_t>(c)] = 0;
          return;
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  ScaleResult r;
  r.wall_ms = wall.StopMs();
  server.Stop();
  service.Stop();

  r.connections = connections;
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  r.total_ops = all.size();
  r.ops_per_sec = r.wall_ms <= 0 ? 0 : static_cast<double>(r.total_ops) * 1000.0 / r.wall_ms;
  r.p50_us = Percentile(all, 0.50);
  r.p95_us = Percentile(all, 0.95);
  r.p99_us = Percentile(all, 0.99);
  const uint64_t wv_count = writev.Count() - wv_count0;
  r.writev_mean = wv_count == 0 ? 0
                                : static_cast<double>(writev.Sum() - wv_sum0) /
                                      static_cast<double>(wv_count);
  r.bytes_per_frame = r.total_ops == 0
                          ? 0
                          : static_cast<double>(bytes_out.Value() - bytes_out0) /
                                static_cast<double>(r.total_ops);
  r.digest = StateDigest(*fs);
  for (char ok : clean) {
    r.clean = r.clean && ok != 0;
  }
  return r;
}

int RunConnectionScaling(bool json, const std::vector<int>& counts) {
  const int total_ops = PaperScale() ? 16384 : 4096;
  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<ScaleResult> results;
  TablePrinter table({"connections", "ops/sec", "p50us", "p95us", "p99us",
                      "writev_mean", "digest", "replay_match"});
  for (int c : counts) {
    ScaleResult r = RunConnectionScale(c, total_ops);
    r.replay_digest = SerialReplayDigest(c, total_ops);
    char digest_hex[32];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    table.AddRow({std::to_string(c), Fmt(r.ops_per_sec, 0), Fmt(r.p50_us, 1),
                  Fmt(r.p95_us, 1), Fmt(r.p99_us, 1), Fmt(r.writev_mean, 2),
                  digest_hex, r.digest == r.replay_digest ? "yes" : "NO"});
    results.push_back(r);
  }

  // Gate 1: at every connection count the served run must leave the same file-system
  // state as the serial replay — pipelining and coalescing may reorder wire
  // traffic, never effects — and every request must have been answered ok.
  bool digests_match = true, all_clean = true;
  // Gate 2: at 64 connections the writer must actually batch — group-committed
  // responses coalesced into one sendmsg, mean > 1 frame.
  double writev_at_64 = 0;
  for (const ScaleResult& r : results) {
    digests_match = digests_match && r.digest == r.replay_digest;
    all_clean = all_clean && r.clean;
    if (r.connections == 64) {
      writev_at_64 = r.writev_mean;
    }
  }
  const bool have_64 = std::find(counts.begin(), counts.end(), 64) != counts.end();
  const bool writev_ok = !have_64 || writev_at_64 > 1.0;
  const bool pass = digests_match && all_clean && writev_ok;

  std::vector<JsonObject> rows;
  {
    for (const ScaleResult& r : results) {
      JsonObject row;
      row.Add("connections", static_cast<uint64_t>(r.connections))
          .Add("total_ops", r.total_ops)
          .Add("ops_per_sec", r.ops_per_sec)
          .Add("p50_us", r.p50_us)
          .Add("p95_us", r.p95_us)
          .Add("p99_us", r.p99_us)
          .Add("writev_frames_mean", r.writev_mean)
          .Add("bytes_per_frame", r.bytes_per_frame)
          .Add("digest", r.digest)
          .Add("replay_digest", r.replay_digest)
          .AddBool("clean", r.clean);
      rows.push_back(row);
    }
    JsonObject out;
    out.Add("bench", "server_connection_scaling")
        .Add("total_ops_target", static_cast<uint64_t>(total_ops))
        .Add("hardware_threads", static_cast<uint64_t>(hw))
        .AddBool("metrics_enabled", kMetricsCompiledIn)
        .Add("rows", rows)
        .AddBool("digests_match", digests_match)
        .AddBool("all_clean", all_clean)
        .Add("writev_frames_mean_at_64", writev_at_64)
        .AddBool("writev_gate_ok", writev_ok)
        .AddBool("pass", pass);
    WriteBenchArtifact("BENCH_server_throughput.json", out);
    if (json) {
      out.Print();
    }
  }
  if (!json) {
    table.Print();
    std::printf("\ndigests match the serial replay: %s\n", digests_match ? "yes" : "NO");
    if (have_64) {
      std::printf("writev_frames mean @64 conns: %.2f (gate: > 1)\n", writev_at_64);
    }
  }
  return pass ? 0 : 1;
}

int RunAll(bool json, const std::vector<Transport>& transports) {
  const int ops_per_thread = PaperScale() ? 2000 : 250;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const std::vector<MixSpec> mixes = {{"read_heavy", 5}, {"mixed", 30}};

  std::vector<JsonObject> rows;
  TablePrinter table({"transport", "mix", "threads", "ops/sec", "p50us", "p95us",
                      "p99us", "mean_write_batch"});
  double read_heavy_1 = 0, read_heavy_8 = 0;
  for (Transport transport : transports) {
    for (const auto& mix : mixes) {
      for (int threads : thread_counts) {
        RunResult r = RunClosedLoop(threads, mix, ops_per_thread, transport);
        // The headline scaling number stays the in-process one (lock/queue
        // overhead only, comparable across PRs).
        if (transport == Transport::kInProcess &&
            std::strcmp(mix.name, "read_heavy") == 0) {
          if (threads == 1) {
            read_heavy_1 = r.ops_per_sec;
          }
          if (threads == 8) {
            read_heavy_8 = r.ops_per_sec;
          }
        }
        table.AddRow({TransportName(transport), mix.name, std::to_string(threads),
                      Fmt(r.ops_per_sec, 0), Fmt(r.p50_us, 1), Fmt(r.p95_us, 1),
                      Fmt(r.p99_us, 1), Fmt(r.mean_batch, 2)});
        JsonObject row;
        row.Add("transport", TransportName(transport))
            .Add("mix", mix.name)
            .Add("threads", r.threads)
            .Add("total_ops", r.total_ops)
            .Add("ops_per_sec", r.ops_per_sec)
            .Add("p50_us", r.p50_us)
            .Add("p95_us", r.p95_us)
            .Add("p99_us", r.p99_us)
            .Add("executed_writes", r.executed_writes)
            .Add("write_batches", r.write_batches)
            .Add("mean_write_batch", r.mean_batch);
        rows.push_back(row);
      }
    }
  }
  double scaling = read_heavy_1 <= 0 ? 0 : read_heavy_8 / read_heavy_1;
  JsonObject out;
  out.Add("bench", "server_throughput")
      .Add("ops_per_thread", static_cast<uint64_t>(ops_per_thread))
      .Add("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .AddBool("metrics_enabled", kMetricsCompiledIn)
      .Add("rows", rows)
      .Add("read_heavy_scaling_1_to_8", scaling);
  WriteBenchArtifact("BENCH_server_throughput.json", out);
  if (json) {
    out.Print();
  } else {
    table.Print();
    if (read_heavy_1 > 0) {
      std::printf(
          "\nread-heavy scaling 1->8 threads: %.2fx (on %u hardware threads)\n",
          scaling, std::thread::hardware_concurrency());
    }
  }
  return 0;
}

}  // namespace
}  // namespace hac

int main(int argc, char** argv) {
  bool json = false;
  bool connection_scaling = false;
  std::vector<int> counts = {1, 8, 64, 512};
  std::vector<hac::Transport> transports = {hac::Transport::kInProcess};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hac_json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--transport=tcp") == 0) {
      transports = {hac::Transport::kTcp};
    } else if (std::strcmp(argv[i], "--transport=inprocess") == 0) {
      transports = {hac::Transport::kInProcess};
    } else if (std::strcmp(argv[i], "--transport=both") == 0) {
      transports = {hac::Transport::kInProcess, hac::Transport::kTcp};
    } else if (std::strncmp(argv[i], "--connections", 13) == 0) {
      connection_scaling = true;
      if (argv[i][13] == '=') {
        counts.clear();
        for (const char* p = argv[i] + 14; *p != '\0';) {
          counts.push_back(std::atoi(p));
          while (*p != '\0' && *p != ',') {
            ++p;
          }
          if (*p == ',') {
            ++p;
          }
        }
      }
    }
  }
  if (connection_scaling) {
    return hac::RunConnectionScaling(json, counts);
  }
  return hac::RunAll(json, transports);
}
