// Workload `browse`: the read path end to end. Closed-loop clients, each on its
// own RemoteServiceClient connection to the default epoll TcpServer, mix
// lookups, Table-4 searches over random subtree scopes, semantic-directory reads,
// full cursor drains and scratch-file writes over a ~5,000-file corpus: one
// client alone for the first half of the run (its calls' CPU costs are the gated
// figures), then two. Every result is checked against the same call on the
// quiesced instance.
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "perfbench/src/bench.h"
#include "perfbench/src/textgen.h"
#include "src/server/hac_service.h"
#include "src/server/tcp_server.h"
#include "src/workload/corpus.h"
#include "src/workload/query_workload.h"

namespace perfbench {
namespace {

using hac::ServerOp;

constexpr size_t kFiles = 5000;
constexpr size_t kDirs = 50;
constexpr size_t kWords = 400;
constexpr size_t kClients = 2;
constexpr size_t kSetups = 5;
constexpr size_t kScratchFiles = 8;
constexpr size_t kTraceOps = 1500;
constexpr size_t kMinScanLinks = 2000;

// Inputs generated from the seed, plus the op universe with reference results.
struct World {
  std::vector<GeneratedFile> files;
  std::vector<std::string> dirs;                           // corpus subdirectories
  std::vector<std::pair<std::string, std::string>> sem;    // semantic dir, query
  std::vector<std::string> browse_dirs;                    // topic + refinement dirs
  std::vector<std::string> scan_dirs;
  std::vector<std::string> scratch_text;
  // ops[class][kind] = candidate ops; a draw picks a class by the mix, then a
  // kind uniformly, then an op uniformly.
  std::vector<std::vector<Op>> ops[kOpClasses];
};

World MakeInputs(uint64_t seed) {
  World w;
  TextGen gen(seed);
  w.files = gen.Corpus("/corpus", kFiles, kDirs, kWords);
  for (size_t d = 0; d < kDirs; ++d) {
    w.dirs.push_back("/corpus/d" + std::to_string(d));
  }
  for (size_t i = 0; i < 16; ++i) {
    w.scratch_text.push_back(gen.Document(gen.PickTopics(), kWords));
  }
  const auto& markers = hac::CorpusTopics();
  for (size_t t = 0; t < markers.size(); ++t) {
    const std::string dir = "/sem/" + markers[t];
    w.sem.push_back({dir, markers[t]});
    w.browse_dirs.push_back(dir);
    for (size_t k = 1; k <= 2; ++k) {
      // A child semantic dir refines its parent: the effective query is
      // `topic AND term`.
      const std::string& term = TextGen::TopicWords(t)[k];
      w.sem.push_back({dir + "/and_" + term, term});
      w.browse_dirs.push_back(dir + "/and_" + term);
    }
  }
  for (size_t k = 1; k <= 4; ++k) {
    const std::string dir = "/scan/s" + std::to_string(k);
    w.sem.push_back({dir, markers[0] + " OR " + markers[k]});
    w.scan_dirs.push_back(dir);
  }
  return w;
}

// Set-up part that builds the file system: load the text, Reindex, SMkdir.
std::unique_ptr<hac::HacFileSystem> BuildFs(const World& w) {
  auto fs = std::make_unique<hac::HacFileSystem>();
  for (const std::string& d : w.dirs) {
    if (!fs->MkdirAll(d).ok()) return nullptr;
  }
  for (const GeneratedFile& f : w.files) {
    if (!fs->WriteFile(f.path, f.content).ok()) return nullptr;
  }
  if (!fs->Reindex().ok()) return nullptr;
  for (const char* d : {"/sem", "/scan", "/scratch"}) {
    if (!fs->Mkdir(d).ok()) return nullptr;
  }
  for (size_t c = 0; c < kClients; ++c) {
    if (!fs->Mkdir("/scratch/c" + std::to_string(c)).ok()) return nullptr;
  }
  for (const auto& [dir, query] : w.sem) {
    if (!fs->SMkdir(dir, query).ok()) return nullptr;
  }
  return fs;
}

// Fills w.ops with every candidate op and its result on the quiesced `fs`.
bool BuildOpUniverse(World& w, hac::HacFileSystem& fs, Report& report) {
  FacadeTarget ref(fs);
  auto add = [&](OpClass cls, size_t kind, Op op) {
    op.cls = cls;
    OpOutcome out = RunOp(ref, op);
    if (!out.ok) {
      report.Check(false, std::string("browse: reference op failed: ") +
                              hac::ServerOpName(op.req.op) + " " + op.req.path);
      return;
    }
    op.expect = out.digest;
    auto& kinds = w.ops[static_cast<size_t>(cls)];
    if (kinds.size() <= kind) kinds.resize(kind + 1);
    kinds[kind].push_back(std::move(op));
  };
  // Lookups: stat a file, list a plain dir, read a transient link.
  for (size_t i = 0; i < w.files.size(); i += 5) {
    add(OpClass::kLookup, 0, Op{.req = MakeRequest(ServerOp::kStat, w.files[i].path)});
  }
  for (const std::string& d : w.dirs) {
    add(OpClass::kLookup, 1, Op{.req = MakeRequest(ServerOp::kReadDir, d)});
  }
  for (const std::string& d : w.browse_dirs) {
    auto entries = fs.ReadDir(d);
    if (!entries.ok()) return false;
    size_t taken = 0;
    for (const hac::DirEntry& e : entries.value()) {
      if (e.type == hac::NodeType::kSymlink && taken++ < 60) {
        add(OpClass::kLookup, 2, Op{.req = MakeRequest(ServerOp::kReadLink, d + "/" + e.name)});
      }
    }
  }
  // Queries: Search with a term of each Table-4 bucket over a random subtree
  // scope, ReadDir of a semantic dir, the first cursor page of one.
  auto* index = dynamic_cast<hac::InvertedIndex*>(&fs.index());
  hac::QueryBucketOptions bo;
  bo.per_bucket = 5;
  const hac::QueryBuckets b = hac::SelectQueryBuckets(*index, fs.registry().LiveCount(), bo);
  const std::vector<std::string>* buckets[3] = {&b.few, &b.medium, &b.many};
  std::vector<std::string> scopes = w.dirs;
  scopes.push_back("/corpus");
  for (int k = 0; k < 3; ++k) {
    if (buckets[k]->empty()) {
      report.Check(false, "browse: no query term in selectivity bucket " + std::to_string(k));
      return false;
    }
    for (const std::string& term : *buckets[k]) {
      for (const std::string& scope : scopes) {
        Op op{.req = MakeRequest(ServerOp::kSearch, scope, term)};
        op.bucket = k;
        add(OpClass::kQuery, static_cast<size_t>(k), std::move(op));
      }
    }
  }
  for (const std::string& d : w.browse_dirs) {
    add(OpClass::kQuery, 3, Op{.req = MakeRequest(ServerOp::kReadDir, d)});
    add(OpClass::kQuery, 4,
        Op{.shape = OpShape::kFirstPage, .req = MakeRequest(ServerOp::kOpenCursor, d)});
  }
  // Scans: full drains of the big semantic dirs.
  for (const std::string& d : w.scan_dirs) {
    auto entries = fs.ReadDir(d);
    if (!entries.ok() || entries.value().size() < kMinScanLinks) {
      report.Check(false, "browse: scan dir " + d + " has fewer than 2000 links");
      return false;
    }
    Op op{.shape = OpShape::kDrain, .req = MakeRequest(ServerOp::kOpenCursor, d)};
    add(OpClass::kScan, 0, op);
    // A completed drain must be digest-equal to the monolithic ReadDir.
    report.Check(w.ops[static_cast<size_t>(OpClass::kScan)][0].back().expect ==
                     EntriesDigest(entries.value()),
                 "browse: paged drain of " + d + " differs from ReadDir");
  }
  return report.check_failures.empty();
}

// One op drawn from the mix: 45% lookup, 40% query, 10% scan, 5% update.
Op Draw(const World& w, hac::Rng& rng, size_t client, uint64_t& writes) {
  const uint64_t u = rng.NextBelow(100);
  OpClass cls = u < 45 ? OpClass::kLookup
                : u < 85 ? OpClass::kQuery
                : u < 95 ? OpClass::kScan
                         : OpClass::kUpdate;
  if (cls == OpClass::kUpdate) {
    const uint64_t k = writes++;
    Op op{.cls = cls,
          .req = MakeRequest(ServerOp::kWriteFile,
                     "/scratch/c" + std::to_string(client) + "/f" +
                         std::to_string(k % kScratchFiles),
                     w.scratch_text[rng.NextBelow(w.scratch_text.size())])};
    return op;
  }
  const auto& kinds = w.ops[static_cast<size_t>(cls)];
  const auto& pool = kinds[rng.NextBelow(kinds.size())];
  return pool[rng.NextBelow(pool.size())];
}


}  // namespace

void RunBrowse(const RunOptions& opts, Report& report) {
  const auto gen0 = Clock::now();
  World w = MakeInputs(opts.seed);
  std::vector<GeneratedFile> all = w.files;
  for (const std::string& t : w.scratch_text) all.push_back({"scratch", t, {}});
  const std::string digest = Hex(InputsDigest(all));
  report.Note("inputs: " + std::to_string(w.files.size()) + " files in " +
              std::to_string(kDirs) + " dirs, " + std::to_string(w.sem.size()) +
              " semantic dirs, digest " + digest + ", generated in " +
              std::to_string(SecondsSince(gen0)) + " s");
  report.Note("config: browse, closed loop, " + std::to_string(kClients) +
              " RemoteServiceClient connections to the epoll TcpServer (default options); "
              "mix 45% lookup / 40% query / 10% scan / 5% update");

  // Set-up, repeated; only the last instance stays alive.
  Samples setup;
  std::unique_ptr<hac::HacFileSystem> fs;
  std::unique_ptr<hac::HacService> service;
  std::unique_ptr<hac::TcpServer> server;
  std::vector<std::unique_ptr<TcpTarget>> clients;
  auto teardown = [&] {
    clients.clear();
    if (server) server->Stop();
    if (service) service->Stop();
    server.reset();
    service.reset();
    fs.reset();
  };
  for (size_t k = 0; k < kSetups; ++k) {
    teardown();
    const auto t0 = Clock::now();
    fs = BuildFs(w);
    double seconds = SecondsSince(t0);
    if (!fs) {
      report.Check(false, "browse: set-up failed");
      return;
    }
    if (k + 1 == kSetups && !BuildOpUniverse(w, *fs, report)) {
      teardown();
      return;
    }
    const auto t1 = Clock::now();
    service = std::make_unique<hac::HacService>(*fs);
    server = std::make_unique<hac::TcpServer>(*service);
    bool ok = server->Start().ok();
    for (size_t c = 0; ok && c < kClients; ++c) {
      clients.push_back(std::make_unique<TcpTarget>());
      ok = clients.back()->Connect("127.0.0.1", server->port()).ok();
    }
    seconds += SecondsSince(t1);
    setup.Add(seconds);
    if (!ok) {
      report.Check(false, "browse: server start or connect failed");
      teardown();
      return;
    }
  }

  report.Note("counters: one facade and one service alive during the measured interval; "
              "the process-global MetricsRegistry is reset when it starts");
  std::vector<hac::Rng> rngs;
  std::vector<uint64_t> writes(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) rngs.emplace_back(opts.seed * 7919 + c);

  // First half, after a warm-up: client 0 alone, one op in flight, so the
  // process CPU time an op takes (client, reactor, service and facade threads
  // together) is its own. It runs first, on the freshly built instance, so the
  // state its ops meet does not depend on how many ops the load half managed.
  LoopSpec probe_spec;
  probe_spec.threads = 1;
  probe_spec.seconds = opts.seconds / 2;
  probe_spec.tag = "browse";
  probe_spec.next = [&](size_t) { return Draw(w, rngs[0], 0, writes[0]); };
  probe_spec.target = [&](size_t) -> Target& { return *clients[0]; };
  probe_spec.probe = true;
  const LoopResult probe = RunClosedLoop(probe_spec);
  MergeLoop(probe, report);

  // Second half, after a warm-up: both clients. A separate connection reads
  // the service's counters at both ends.
  LoadWindow win;
  win.service = true;
  TcpTarget stats_client;
  report.Check(stats_client.Connect("127.0.0.1", server->port()).ok(), "browse: connect failed");
  hac::StatsSnapshot fs_before;
  LoopSpec spec;
  spec.threads = kClients;
  spec.seconds = opts.seconds / 2;
  spec.tag = "browse";
  spec.next = [&](size_t c) { return Draw(w, rngs[c], c, writes[c]); };
  spec.target = [&](size_t c) -> Target& { return *clients[c]; };
  spec.at_start = [&] {
    hac::MetricsRegistry::Global().ResetForTest();
    fs_before = stats_client.Call(MakeRequest(ServerOp::kStats, "")).stats;
    win.svc_before = service->Stats();
  };
  const LoopResult loop = RunClosedLoop(spec);
  win.svc_after = service->Stats();
  win.AddFacadeDelta(fs_before, stats_client.Call(MakeRequest(ServerOp::kStats, "")).stats);
  win.reg = hac::MetricsRegistry::Global().Snapshot();
  win.scans = loop.scans;
  win.pages = loop.pages;
  win.restarts = loop.restarts;
  win.updates = loop.updates;
  MergeLoop(loop, report);

  const uint64_t completed = loop.attempted - loop.failed;
  const auto& lat = loop.lat;
  // Gated lookup and update figures are one call each: StatPath of a file and
  // WriteFile of a scratch file. The other calls are printed per call.
  const Samples all_cpu = AllOf(probe.cpu_calls);
  report.E2eCosts(probe.reference, all_cpu.Mean(), all_cpu.seen,
                  CallOf(probe.cpu_calls, "lookup.Stat"),
                  CallOf(probe.cpu_calls, "update.WriteFile"));
  report.E2e("ops_per_cpu_s", loop.CpuRate(), "1/s", completed);
  report.E2e("ops_per_s", loop.BusyRate(kClients), "1/s", completed);
  report.E2eQuantiles("lookup", CallOf(loop.calls, "lookup.Stat"), "us");
  report.E2eQuantiles("query", lat[static_cast<size_t>(OpClass::kQuery)], "us");
  report.E2eQuantiles("scan", lat[static_cast<size_t>(OpClass::kScan)], "ms", 1e-3);
  report.E2eQuantiles("update", CallOf(loop.calls, "update.WriteFile"), "us");
  report.E2e("setup_s", setup.Quantile(0.5), "s", setup.seen);
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  report.NoteCalls("browse", loop.calls);
  report.NoteCalls("browse-cpu", probe.cpu_calls);
  report.Note("browse: " + std::to_string(win.scans) + " drains, " +
              std::to_string(win.pages) + " pages, " + std::to_string(win.restarts) +
              " stale restarts");
  teardown();

  if (opts.trace) {
    AddLoadLayers(win, report);
    TracePlan plan;
    plan.build = [&w] { return BuildFs(w); };
    hac::Rng rng(opts.seed * 104729 + 17);
    uint64_t trace_writes = 0;
    for (size_t i = 0; i < kTraceOps; ++i) {
      plan.ops.push_back(Draw(w, rng, 0, trace_writes));
    }
    RunTracedPasses(opts, plan, report);
  }
}

}  // namespace perfbench
