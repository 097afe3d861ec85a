// The traced run, the load-window layer metrics, and the result printer.
#include <cstdio>
#include <filesystem>

#include "perfbench/src/bench.h"
#include "src/index/inverted_index.h"
#include "src/index/query.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_server.h"
#include "src/server/wire.h"
#include "src/support/metric_names.h"

namespace perfbench {

namespace mn = hac::metric_names;
using hac::ServerOp;
using hac::ServerRequest;
using hac::ServerResponse;

namespace {

// The metrics BENCHMARK.json names: every end-to-end one on a --trace 0 run and
// every per-layer one on a --trace 1 run, in this order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kEndToEnd[] = {
    {"op_cost_rt", "rt"}, {"lookup_cost_rt", "rt"}, {"update_cost_rt", "rt"},
    {"setup_s", "s"},     {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"server.wire.encode_ns_p50", "ns"},
    {"server.wire.decode_ns_p50", "ns"},
    {"server.wire.bytes_per_op", "B"},
    {"server.reactor.transport_us_p50", "us"},
    {"server.reactor.frames_per_sendmsg", "count"},
    {"server.reactor.wakeups_per_op", "count"},
    {"server.service.handoff_us_p50", "us"},
    {"server.service.queue_wait_read_us_p50", "us"},
    {"server.service.queue_wait_read_us_p99", "us"},
    {"server.service.queue_wait_write_us_p99", "us"},
    {"server.service.write_batch_mean", "count"},
    {"server.service.shed_frac", "ratio"},
    {"core.facade.self_us_p50.lookup", "us"},
    {"core.facade.self_us_p50.query", "us"},
    {"core.facade.self_us_p50.scan", "us"},
    {"core.facade.self_us_p50.update", "us"},
    {"core.facade.attr_cache_hit_ratio", "ratio"},
    {"core.paging.page_us_p50", "us"},
    {"core.paging.pages_per_scan", "count"},
    {"core.paging.stale_restarts_per_scan", "count"},
    {"core.consistency.pass_us_p50", "us"},
    {"core.consistency.pass_us_p99", "us"},
    {"core.consistency.evals_per_update", "count"},
    {"core.consistency.dirs_visited_per_pass", "count"},
    {"core.consistency.eval_cache_hit_ratio", "ratio"},
    {"core.consistency.short_circuit_ratio", "ratio"},
    {"core.durability.commit_us_p50", "us"},
    {"core.durability.commit_us_p99", "us"},
    {"core.durability.fsyncs_per_update", "count"},
    {"core.durability.wal_bytes_per_update", "B"},
    {"core.durability.checkpoint_ms", "ms"},
    {"index.evaluate_few_us_p50", "us"},
    {"index.evaluate_medium_us_p50", "us"},
    {"index.evaluate_many_us_p50", "us"},
    {"index.cursor_first_page_us_p50", "us"},
    {"index.selectivity_pct", "%"},
    {"vfs.resolve_us_p50", "us"},
    {"vfs.stat_us_p50", "us"},
    {"vfs.readdir_us_p50", "us"},
    {"vfs.write_us_p50", "us"},
    {"trace.ops_per_s_spans_off", "1/s"},
    {"trace.ops_per_s_spans_on", "1/s"},
    {"trace.overhead_pct", "%"},
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Delta(const std::atomic<uint64_t>& a, const std::atomic<uint64_t>& b) {
  return b.load() - a.load();
}

constexpr const char* kBucketSpans[] = {"index.evaluate.few", "index.evaluate.medium",
                                        "index.evaluate.many"};

// Median over ops of a[i] - b[i] - c[i] (restricted to ops of class `cls` when set).
double MedianDiff(const std::vector<Op>& ops, const std::vector<double>& a,
                  const std::vector<double>& b, const std::vector<double>* c = nullptr,
                  int cls = -1) {
  Samples s;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (cls >= 0 && static_cast<int>(ops[i].cls) != cls) {
      continue;
    }
    s.Add(a[i] - b[i] - (c != nullptr ? (*c)[i] : 0.0));
  }
  return s.Quantile(0.5);
}

// One pass's instance: a fresh world, optionally durable, optionally served.
struct PassWorld {
  std::unique_ptr<hac::HacFileSystem> fs;
  std::string data_dir;
  std::unique_ptr<hac::DurableStore> store;
  std::unique_ptr<hac::HacService> service;
  std::unique_ptr<hac::TcpServer> server;

  // Stop in dependency order: the transport, the service (whose Stop seals the
  // store), the store, then its data directory.
  ~PassWorld() {
    server.reset();
    service.reset();
    store.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }
};

bool BuildPass(const RunOptions& opts, const TracePlan& plan, const std::string& tag,
               bool serve, bool tcp, PassWorld& w, Report& report) {
  w.fs = plan.build();
  if (!w.fs) {
    report.Check(false, "traced pass " + tag + ": instance build failed");
    return false;
  }
  if (plan.durable) {
    w.data_dir = FreshDataDir(opts, "trace-" + tag);
    auto store = AttachStore(*w.fs, w.data_dir);
    if (!store.ok()) {
      report.Check(false, "traced pass " + tag + ": " + store.error().ToString());
      return false;
    }
    w.store = std::move(store.value());
  }
  if (!serve) {
    return true;
  }
  hac::ServiceOptions so;
  so.durable_store = w.store.get();
  w.service = std::make_unique<hac::HacService>(*w.fs, so);
  if (tcp) {
    w.server = std::make_unique<hac::TcpServer>(*w.service);
    auto started = w.server->Start();
    if (!started.ok()) {
      report.Check(false, "traced pass " + tag + ": server start: " + started.error().ToString());
      return false;
    }
  }
  return true;
}

void CheckOutcome(const Op& op, const OpOutcome& out, size_t i, const char* pass,
                  Report& report) {
  const bool ok = out.ok == op.expect_ok && (op.expect == 0 || out.digest == op.expect);
  report.Check(ok, std::string("traced pass ") + pass + ": op " + std::to_string(i) + " (" +
                       hac::ServerOpName(op.req.op) + ") result differs from reference");
}

}  // namespace

Samples SpanDurationsUs(const SpanLog& log, const char* name) {
  Samples s;
  const std::string want = name;
  for (const Span& sp : log.spans()) {
    if (want == sp.name) {
      s.Add(static_cast<double>(sp.end_ns - sp.start_ns) / 1000.0);
    }
  }
  return s;
}

hac::Result<std::unique_ptr<hac::DurableStore>> AttachStore(hac::HacFileSystem& fs,
                                                            const std::string& dir) {
  hac::DurabilityOptions o;
  o.data_dir = dir;
  HAC_ASSIGN_OR_RETURN(std::unique_ptr<hac::DurableStore> store, hac::DurableStore::Open(o));
  HAC_RETURN_IF_ERROR(store->CommitFrom(fs));
  HAC_RETURN_IF_ERROR(store->Checkpoint(fs));
  return store;
}

void RunTracedPasses(const RunOptions& opts, const TracePlan& plan, Report& report) {
  const std::vector<Op>& ops = plan.ops;
  const size_t n = ops.size();
  SpanLog log;
  std::vector<int64_t> children;  // spans of the op in flight, parented when it ends
  uint64_t current = 0;           // request id of the op in flight
  auto child = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    children.push_back(log.Add(name, a, b, -1, current));
  };
  auto root = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    const int64_t id = log.Add(name, a, b, -1, current);
    for (int64_t c : children) {
      log.SetParent(c, id);
    }
    children.clear();
  };

  // Pass 1, twice over TCP: spans off, then on. With spans on, each request and
  // response of the op is also encoded and decoded once more, timed.
  double ops_per_s[2] = {0, 0};
  uint64_t wire_bytes = 0;
  std::vector<double> hook_us(n, 0.0);  // re-encoding time inside each tcp.op span
  StepHook wire = [&](const ServerRequest& req, const ServerResponse& resp,
                      Clock::time_point, Clock::time_point) {
    const auto t0 = Clock::now();
    std::vector<uint8_t> qframe = hac::EncodeRequestFrame(req);
    const auto t1 = Clock::now();
    const std::vector<uint8_t> qpayload(qframe.begin() + hac::kWireHeaderSize, qframe.end());
    const auto t2 = Clock::now();
    const bool q_ok = hac::DecodeRequestPayload(qpayload).ok();
    const auto t3 = Clock::now();
    std::vector<uint8_t> rframe = hac::EncodeResponseFrame(resp);
    const auto t4 = Clock::now();
    const std::vector<uint8_t> rpayload(rframe.begin() + hac::kWireHeaderSize, rframe.end());
    const auto t5 = Clock::now();
    const bool r_ok = hac::DecodeResponsePayload(rpayload).ok();
    const auto t6 = Clock::now();
    report.Check(q_ok && r_ok, "wire re-decode failed");
    child("wire.encode_request", t0, t1);
    child("wire.decode_request", t2, t3);
    child("wire.encode_response", t3, t4);
    child("wire.decode_response", t5, t6);
    wire_bytes += qframe.size() + rframe.size();
    hac::RecycleBuffer(std::move(qframe));
    hac::RecycleBuffer(std::move(rframe));
    hook_us[current] += UsBetween(t0, Clock::now());
  };
  for (int spans = 0; spans < 2; ++spans) {
    PassWorld w;
    TcpTarget client;
    if (!BuildPass(opts, plan, spans ? "tcp-on" : "tcp-off", true, true, w, report) ||
        !client.Connect("127.0.0.1", w.server->port()).ok()) {
      report.Check(false, "traced TCP pass could not start");
      return;
    }
    std::map<hac::Fd, hac::Fd> fds;
    const auto start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      current = i;
      const auto a = Clock::now();
      OpOutcome out = RunOp(client, ops[i], &fds, spans ? wire : StepHook());
      if (spans) {
        root("tcp.op", a, Clock::now());
      }
      CheckOutcome(ops[i], out, i, "tcp", report);
    }
    ops_per_s[spans] = static_cast<double>(n) / SecondsSince(start);
  }

  // Pass 2: in-process ServiceClient.
  {
    PassWorld w;
    if (!BuildPass(opts, plan, "service", true, false, w, report)) {
      return;
    }
    InProcessTarget client(*w.service);
    std::map<hac::Fd, hac::Fd> fds;
    for (size_t i = 0; i < n; ++i) {
      current = i;
      const auto a = Clock::now();
      OpOutcome out = RunOp(client, ops[i], &fds);
      root("service.op", a, Clock::now());
      CheckOutcome(ops[i], out, i, "service", report);
    }
  }

  // Pass 3: the facade directly; then each op re-issued against the index and
  // the VFS, and (durable plans) DurableStore::CommitFrom after each write.
  Samples selectivity;
  {
    PassWorld w;
    if (!BuildPass(opts, plan, "facade", false, false, w, report)) {
      return;
    }
    hac::HacFileSystem& fs = *w.fs;
    auto* index = dynamic_cast<hac::InvertedIndex*>(&fs.index());
    FacadeTarget target(fs);
    std::map<hac::Fd, hac::Fd> fds;
    StepHook paging = [&](const ServerRequest& req, const ServerResponse&,
                          Clock::time_point a, Clock::time_point b) {
      if (req.op == ServerOp::kFetchPage) {
        child("paging.page", a, b);
      }
    };
    uint64_t shadow = 0;
    for (size_t i = 0; i < n; ++i) {
      current = i;
      const Op& op = ops[i];
      const ServerRequest& req = op.req;
      const auto a = Clock::now();
      OpOutcome out = RunOp(target, op, &fds, paging);
      root("facade.op", a, Clock::now());
      CheckOutcome(op, out, i, "facade", report);
      // The re-issues below run after the facade op ends, so they nest under a
      // root span of their own that shares the op's request id.
      const auto reissue = Clock::now();
      if (w.store && !hac::IsReadOp(req.op)) {
        const auto c0 = Clock::now();
        report.Check(w.store->CommitFrom(fs).ok(), "CommitFrom failed in the facade pass");
        child("durability.commit", c0, Clock::now());
        if (req.op == ServerOp::kCheckpoint) {
          const auto k0 = Clock::now();
          report.Check(w.store->Checkpoint(fs).ok(), "Checkpoint failed in the facade pass");
          child("durability.checkpoint", k0, Clock::now());
        }
      }
      if (!req.path.empty()) {
        const auto v0 = Clock::now();
        (void)fs.vfs().Lookup(req.path);
        child("vfs.resolve", v0, Clock::now());
      }
      const auto v0 = Clock::now();
      if (req.op == ServerOp::kStat) {
        (void)fs.vfs().StatPath(req.path);
        child("vfs.stat", v0, Clock::now());
      } else if (req.op == ServerOp::kReadDir ||
                 (op.shape != OpShape::kSingle && req.aux.empty())) {
        (void)fs.vfs().ReadDir(req.path);
        child("vfs.readdir", v0, Clock::now());
      } else if (req.op == ServerOp::kWriteFile) {
        (void)fs.vfs().WriteFile(req.path, req.aux);  // same bytes: state unchanged
        child("vfs.write", v0, Clock::now());
      } else if (req.op == ServerOp::kWriteFd) {
        (void)fs.vfs().WriteFile("/.perfbench-shadow" + std::to_string(shadow++ % 8), req.aux);
        child("vfs.write", v0, Clock::now());
      }
      const bool search = req.op == ServerOp::kSearch ||
                          (op.shape != OpShape::kSingle && !req.aux.empty());
      if (search && index != nullptr) {
        auto expr = hac::ParseQuery(req.aux);
        auto scope = fs.ScopeOf(req.path.empty() ? "/" : req.path);
        if (expr.ok() && scope.ok()) {
          const auto e0 = Clock::now();
          auto result = index->Evaluate(*expr.value(), scope.value(), nullptr);
          const auto e1 = Clock::now();
          if (op.bucket >= 0 && op.bucket < 3) {
            child(kBucketSpans[op.bucket], e0, e1);
          }
          if (result.ok() && scope.value().Count() > 0) {
            selectivity.Add(100.0 * static_cast<double>(result.value().Count()) /
                            static_cast<double>(scope.value().Count()));
          }
          const auto c0 = Clock::now();
          auto cursor = index->OpenCursor(*expr.value(), scope.value(), nullptr);
          if (cursor.ok()) {
            hac::PostingCursor& cur = *cursor.value();
            size_t pulled = 0;
            for (uint32_t d = cur.SeekGE(0); d != hac::PostingCursor::kCursorEnd &&
                                             pulled < hac::kDefaultPageEntries;
                 d = cur.Next()) {
              ++pulled;
            }
          }
          child("index.cursor_first_page", c0, Clock::now());
        }
      }
      root("reissue.op", reissue, Clock::now());
    }
  }

  // Derived per-layer metrics.
  const auto tcp = PerRequestUs(log, "tcp.op", n);
  const auto svc = PerRequestUs(log, "service.op", n);
  const auto fac = PerRequestUs(log, "facade.op", n);
  const auto commit = PerRequestUs(log, "durability.commit", n);
  std::vector<double> idx(n, 0.0), vfs(n, 0.0), enc(n, 0.0), dec(n, 0.0);
  for (const char* name : {"index.evaluate.few", "index.evaluate.medium",
                           "index.evaluate.many", "index.cursor_first_page"}) {
    const auto d = PerRequestUs(log, name, n);
    for (size_t i = 0; i < n; ++i) idx[i] += d[i];
  }
  for (const char* name : {"vfs.resolve", "vfs.stat", "vfs.readdir", "vfs.write"}) {
    const auto d = PerRequestUs(log, name, n);
    for (size_t i = 0; i < n; ++i) vfs[i] += d[i];
  }
  for (const char* name : {"wire.encode_request", "wire.encode_response"}) {
    const auto d = PerRequestUs(log, name, n);
    for (size_t i = 0; i < n; ++i) enc[i] += d[i] * 1000.0;
  }
  for (const char* name : {"wire.decode_request", "wire.decode_response"}) {
    const auto d = PerRequestUs(log, name, n);
    for (size_t i = 0; i < n; ++i) dec[i] += d[i] * 1000.0;
  }
  auto median = [](const std::vector<double>& v) {
    Samples s;
    s.v = v;
    return s.Quantile(0.5);
  };
  report.Layer("server.wire.encode_ns_p50", median(enc), "ns", n);
  report.Layer("server.wire.decode_ns_p50", median(dec), "ns", n);
  report.Layer("server.wire.bytes_per_op", Ratio(static_cast<double>(wire_bytes), n), "B", n);
  report.Layer("server.reactor.transport_us_p50", MedianDiff(ops, tcp, svc, &hook_us), "us", n);
  std::vector<double> fac_commit(n);
  for (size_t i = 0; i < n; ++i) fac_commit[i] = fac[i] + commit[i];
  report.Layer("server.service.handoff_us_p50", MedianDiff(ops, svc, fac_commit), "us", n);
  for (OpClass c : {OpClass::kLookup, OpClass::kQuery, OpClass::kScan, OpClass::kUpdate}) {
    size_t count = 0;
    for (const Op& op : ops) count += op.cls == c;
    report.Layer(std::string("core.facade.self_us_p50.") + ClassName(c),
                 MedianDiff(ops, fac, idx, &vfs, static_cast<int>(c)), "us", count);
  }
  const Samples pages = SpanDurationsUs(log, "paging.page");
  report.Layer("core.paging.page_us_p50", pages.Quantile(0.5), "us", pages.size());
  const Samples commits = SpanDurationsUs(log, "durability.commit");
  report.Layer("core.durability.commit_us_p50", commits.Quantile(0.5), "us", commits.size());
  report.Layer("core.durability.commit_us_p99", commits.Quantile(0.99), "us", commits.size());
  const char* bucket_metrics[] = {"index.evaluate_few_us_p50", "index.evaluate_medium_us_p50",
                                  "index.evaluate_many_us_p50"};
  for (int b = 0; b < 3; ++b) {
    const Samples s = SpanDurationsUs(log, kBucketSpans[b]);
    report.Layer(bucket_metrics[b], s.Quantile(0.5), "us", s.size());
  }
  const Samples first = SpanDurationsUs(log, "index.cursor_first_page");
  report.Layer("index.cursor_first_page_us_p50", first.Quantile(0.5), "us", first.size());
  report.Layer("index.selectivity_pct", selectivity.Mean(), "%", selectivity.size());
  for (const char* name : {"vfs.resolve", "vfs.stat", "vfs.readdir", "vfs.write"}) {
    const Samples s = SpanDurationsUs(log, name);
    report.Layer(std::string(name) + "_us_p50", s.Quantile(0.5), "us", s.size());
  }
  report.Layer("trace.ops_per_s_spans_off", ops_per_s[0], "1/s", n);
  report.Layer("trace.ops_per_s_spans_on", ops_per_s[1], "1/s", n);
  report.Layer("trace.overhead_pct", 100.0 * Ratio(ops_per_s[0] - ops_per_s[1], ops_per_s[0]),
               "%");

  const std::string path = opts.out_dir + "/spans-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  report.Check(log.WriteJson(path), "could not write " + path);
  report.Note("trace: " + std::to_string(n) + " ops per pass, " +
              std::to_string(log.spans().size()) + " spans written to " + path);
}

void LoadWindow::AddFacadeDelta(const hac::StatsSnapshot& before,
                                const hac::StatsSnapshot& after) {
  query_evaluations += Delta(before.query_evaluations, after.query_evaluations);
  delta_evaluations += Delta(before.delta_evaluations, after.delta_evaluations);
  scope_propagations += Delta(before.scope_propagations, after.scope_propagations);
  short_circuits += Delta(before.short_circuit_propagations, after.short_circuit_propagations);
  attr_cache_hits += Delta(before.attr_cache_hits, after.attr_cache_hits);
  attr_cache_misses += Delta(before.attr_cache_misses, after.attr_cache_misses);
}

void AddLoadLayers(const LoadWindow& w, Report& report) {
  Registry reg{w.reg};
  const double updates = static_cast<double>(w.updates);
  const double requests =
      w.service ? static_cast<double>((w.svc_after.admitted_reads - w.svc_before.admitted_reads) +
                                      (w.svc_after.admitted_writes - w.svc_before.admitted_writes))
                : 0;
  report.Layer("server.reactor.frames_per_sendmsg", reg.HistMean(mn::kServerWritevFrames),
               "count", reg.HistCount(mn::kServerWritevFrames));
  report.Layer("server.reactor.wakeups_per_op",
               Ratio(static_cast<double>(reg.Counter(mn::kServerEpollWakeups)), requests),
               "count");
  report.Layer("server.service.queue_wait_read_us_p50",
               reg.HistP(mn::kServiceQueueWaitReadUs, 0.5), "us",
               reg.HistCount(mn::kServiceQueueWaitReadUs));
  report.Layer("server.service.queue_wait_read_us_p99",
               reg.HistP(mn::kServiceQueueWaitReadUs, 0.99), "us",
               reg.HistCount(mn::kServiceQueueWaitReadUs));
  report.Layer("server.service.queue_wait_write_us_p99",
               reg.HistP(mn::kServiceQueueWaitWriteUs, 0.99), "us",
               reg.HistCount(mn::kServiceQueueWaitWriteUs));
  report.Layer("server.service.write_batch_mean", reg.HistMean(mn::kServiceWriteBatchSize),
               "count", reg.HistCount(mn::kServiceWriteBatchSize));
  if (w.service) {
    const double refused =
        static_cast<double>((w.svc_after.rejected_queue_full - w.svc_before.rejected_queue_full) +
                            (w.svc_after.shed_deadline - w.svc_before.shed_deadline));
    report.Layer("server.service.shed_frac", Ratio(refused, requests + refused), "ratio");
  }
  const double hits = static_cast<double>(w.attr_cache_hits);
  const double misses = static_cast<double>(w.attr_cache_misses);
  report.Layer("core.facade.attr_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report.Layer("core.paging.pages_per_scan", Ratio(static_cast<double>(w.pages), w.scans),
               "count", w.scans);
  report.Layer("core.paging.stale_restarts_per_scan",
               Ratio(static_cast<double>(w.restarts), w.scans), "count", w.scans);

  const double full = static_cast<double>(w.query_evaluations);
  const double delta = static_cast<double>(w.delta_evaluations);
  const double visited = static_cast<double>(w.scope_propagations);
  const double skipped = static_cast<double>(w.short_circuits);
  const double passes = static_cast<double>(reg.Counter(mn::kConsistencyPasses));
  report.Layer("core.consistency.pass_us_p50", reg.HistP(mn::kConsistencyPassUs, 0.5), "us",
               reg.HistCount(mn::kConsistencyPassUs));
  report.Layer("core.consistency.pass_us_p99", reg.HistP(mn::kConsistencyPassUs, 0.99), "us",
               reg.HistCount(mn::kConsistencyPassUs));
  report.Layer("core.consistency.evals_per_update", Ratio(full + delta, updates), "count");
  report.Layer("core.consistency.dirs_visited_per_pass", Ratio(visited + skipped, passes),
               "count");
  report.Layer("core.consistency.eval_cache_hit_ratio", Ratio(delta, full + delta), "ratio");
  report.Layer("core.consistency.short_circuit_ratio", Ratio(skipped, visited + skipped),
               "ratio");

  report.Layer("core.durability.fsyncs_per_update",
               Ratio(static_cast<double>(reg.HistCount(mn::kDurabilityFsyncUs)), updates),
               "count");
  report.Layer("core.durability.wal_bytes_per_update",
               Ratio(static_cast<double>(reg.Counter(mn::kDurabilityWalBytes)), updates), "B");
  report.Layer("core.durability.checkpoint_ms",
               reg.HistMean(mn::kDurabilityCheckpointUs) / 1000.0, "ms",
               reg.HistCount(mn::kDurabilityCheckpointUs));
}

int PrintReport(const RunOptions& opts, const Report& report) {
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  const double failed_frac =
      Ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted));
  std::printf("e2e  %-40s %14.6g %-6s (attempted=%llu failed=%llu)\n", "failed_frac",
              failed_frac, "ratio", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const Metric& m : report.e2e) {
    std::printf("e2e  %-40s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  auto find = [](const std::vector<Metric>& v, const char* name) -> const Metric* {
    for (const Metric& m : v) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  if (opts.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = find(report.layers, spec.name);
      std::printf("layer %-40s %14.6g %-6s %s\n", spec.name, m ? m->value : 0.0, spec.unit,
                  m ? ("n=" + std::to_string(m->samples)).c_str() : "(layer not exercised)");
    }
  }
  bool complete = true;
  for (const MetricSpec& spec : kEndToEnd) {
    const Metric* m = find(report.e2e, spec.name);
    if (m == nullptr || m->unit != spec.unit) {
      std::fprintf(stderr, "perfbench: workload did not report %s\n", spec.name);
      complete = false;
    }
  }
  for (const std::string& f : report.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = report.check_failures.empty() && complete;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  auto add = [&](const char* name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (opts.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = find(report.layers, spec.name);
      add(spec.name, m ? m->value : 0.0, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find(report.e2e, spec.name);
      add(spec.name, m ? m->value : 0.0, spec.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
