// Workload `reclassify`: the write path. Two writer threads and one reader thread,
// each an in-process ServiceClient of one HacService that group-commits into a
// DurableStore. Writers toggle queries of mid-DAG semantic dirs, prohibit and
// unprohibit files, add and remove permanent links and edit files (with a
// periodic Reindex); the reader lists leaf dirs. For the first half of the run
// one caller issues all three op streams in turn (its calls' CPU costs are the
// gated figures), then the three threads run them. After the run the data dir
// is recovered and must reproduce the live state.
#include <cstdio>
#include <filesystem>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/textgen.h"
#include "src/server/hac_service.h"
#include "src/support/metric_names.h"
#include "src/tools/fsck.h"
#include "src/workload/corpus.h"

namespace perfbench {
namespace {

using hac::ServerOp;

constexpr size_t kFiles = 1000;
constexpr size_t kDirs = 16;
constexpr size_t kWords = 400;
constexpr size_t kWriters = 2;
constexpr size_t kSetups = 7;
constexpr size_t kTraceOps = 600;
constexpr uint64_t kReindexEvery = 64;
// Each writer also requests a checkpoint every this many ops (in the paced half
// of a 20 s run about three, in the one-caller half about twenty): at this
// write rate the default policy alone never checkpoints within a run, and
// checkpoints belong to the write path this workload measures. Their cost
// counts in update_cost_rt and op_cost_rt like any other acknowledged op's.
constexpr uint64_t kCheckpointEvery = 256;
constexpr size_t kPermLinks = 4;  // permanent link slots per writer and L1 dir
constexpr size_t kProhibitSlots = 6;
// Writers pause this long after each acknowledged op. Without a pause two
// closed-loop writers keep the service's write queue non-empty, and the
// writer-priority gate then admits the reader only when it wins a race against
// the next batch, which makes read latency chaotic from run to run. With half
// these pauses the writers kept the one CPU busy enough that the reader's
// figures spread a third more between runs. The pauses cost no CPU time, so
// they do not set ops_per_cpu_s.
constexpr auto kWriterThink = std::chrono::microseconds(20000);
constexpr auto kReaderThink = std::chrono::microseconds(2000);

struct Toggle {
  std::string dir, qa, qb;
};

struct World {
  std::vector<GeneratedFile> files;
  std::vector<std::string> dirs;
  std::vector<std::pair<std::string, std::string>> sem;  // creation order: level by level
  std::vector<std::string> l1;
  std::vector<Toggle> toggles;  // mid-DAG dirs (levels 2 and 3)
  std::vector<std::string> leaves;
  std::vector<std::string> edits;  // replacement texts for file edits
};

World MakeInputs(uint64_t seed) {
  World w;
  TextGen gen(seed);
  w.files = gen.Corpus("/corpus", kFiles, kDirs, kWords);
  for (size_t d = 0; d < kDirs; ++d) {
    w.dirs.push_back("/corpus/d" + std::to_string(d));
  }
  for (size_t i = 0; i < 32; ++i) {
    w.edits.push_back(gen.Document(gen.PickTopics(), kWords));
  }
  auto ref = [](const std::string& d) { return "dir(" + d + ")"; };
  const auto& markers = hac::CorpusTopics();
  for (size_t i = 0; i < markers.size(); ++i) {
    w.l1.push_back("/dag/t" + std::to_string(i));
    w.sem.push_back({w.l1.back(), markers[i]});
  }
  std::vector<std::string> l2, l3;
  for (size_t j = 0; j < 16; ++j) {
    const std::string a = ref(w.l1[j % 12]), b = ref(w.l1[(j + 5) % 12]);
    l2.push_back("/dag/p" + std::to_string(j));
    w.toggles.push_back({l2.back(), a + " OR " + b, a + " AND NOT " + b});
    w.sem.push_back({l2.back(), w.toggles.back().qa});
  }
  for (size_t k = 0; k < 12; ++k) {
    const std::string x = ref(l2[k]), y = ref(l2[(k + 4) % 16]);
    l3.push_back("/dag/q" + std::to_string(k));
    w.toggles.push_back({l3.back(), x + " OR " + y, x});
    w.sem.push_back({l3.back(), w.toggles.back().qa});
  }
  for (size_t m = 0; m < 8; ++m) {
    w.leaves.push_back("/dag/leaf" + std::to_string(m));
    w.sem.push_back({w.leaves.back(), ref(l3[m]) + " OR " + ref(l3[(m + 4) % 12])});
  }
  return w;
}

std::unique_ptr<hac::HacFileSystem> BuildFs(const World& w) {
  auto fs = std::make_unique<hac::HacFileSystem>();
  for (const std::string& d : w.dirs) {
    if (!fs->MkdirAll(d).ok()) return nullptr;
  }
  for (const GeneratedFile& f : w.files) {
    if (!fs->WriteFile(f.path, f.content).ok()) return nullptr;
  }
  if (!fs->Reindex().ok() || !fs->Mkdir("/dag").ok()) return nullptr;
  for (const auto& [dir, query] : w.sem) {
    if (!fs->SMkdir(dir, query).ok()) return nullptr;
  }
  return fs;
}

// One writer's op generator. Each writer owns disjoint dirs, links and files,
// and tracks their state, so every op it issues is valid when it executes.
class Writer {
 public:
  // Writers start at different points of the checkpoint and Reindex cycles, so
  // their periodic ops do not coincide.
  Writer(const World& w, size_t id, uint64_t seed)
      : w_(w), id_(id), rng_(seed),
        count_(id * (kCheckpointEvery + kReindexEvery) / kWriters) {
    for (size_t i = id; i < w.toggles.size(); i += kWriters) toggles_.push_back(i);
    for (size_t i = id; i < w.l1.size(); i += kWriters) l1_.push_back(i);
    // Files a writer edits; its permanent links point at the first half of them
    // and its prohibitions name the second half, so a Prohibit never removes one
    // of its own permanent links. No two permanent links of a dir share a target
    // (see Next), because unlinking one of two permanent links to the same file
    // prohibits the file while the other link stays, which fsck reports as C5.
    for (size_t i = id; i < w.files.size(); i += kWriters) files_.push_back(i);
    toggled_.assign(w.toggles.size(), false);
    linked_.assign(w.l1.size() * kPermLinks, false);
    prohibited_.assign(w.l1.size() * kProhibitSlots, false);
  }

  Op Next() {
    Op op;
    op.cls = OpClass::kUpdate;
    if (++count_ % kCheckpointEvery == 0) {
      op.req = MakeRequest(ServerOp::kCheckpoint, "");
      return op;
    }
    if (count_ % kReindexEvery == 0) {
      op.req = MakeRequest(ServerOp::kReindex, "");
      return op;
    }
    const uint64_t u = rng_.NextBelow(100);
    if (u < 30) {
      const size_t t = toggles_[rng_.NextBelow(toggles_.size())];
      toggled_[t] = !toggled_[t];
      const Toggle& tg = w_.toggles[t];
      op.req = MakeRequest(ServerOp::kSetQuery, tg.dir, toggled_[t] ? tg.qb : tg.qa);
    } else if (u < 50) {
      const size_t d = l1_[rng_.NextBelow(l1_.size())];
      const size_t slot = rng_.NextBelow(kProhibitSlots);
      const size_t half = files_.size() / 2;
      const std::string& file = w_.files[files_[half + (d * 37 + slot * 101) % half]].path;
      const bool on = prohibited_[d * kProhibitSlots + slot];
      prohibited_[d * kProhibitSlots + slot] = !on;
      op.req = MakeRequest(on ? ServerOp::kUnprohibit : ServerOp::kProhibit, w_.l1[d], file);
    } else if (u < 70) {
      const size_t d = l1_[rng_.NextBelow(l1_.size())];
      const size_t slot = rng_.NextBelow(kPermLinks);
      const std::string link =
          w_.l1[d] + "/perm_w" + std::to_string(id_) + "_" + std::to_string(slot);
      const bool on = linked_[d * kPermLinks + slot];
      linked_[d * kPermLinks + slot] = !on;
      // Slots of one dir never share a target: the target's index modulo
      // kPermLinks is the slot.
      const size_t span = files_.size() / 2 / kPermLinks;
      const size_t target = slot + kPermLinks * rng_.NextBelow(span);
      op.req = on ? MakeRequest(ServerOp::kUnlink, link)
                  : MakeRequest(ServerOp::kSymlink, link, w_.files[files_[target]].path);
    } else {
      const size_t f = files_[rng_.NextBelow(files_.size())];
      op.req = MakeRequest(ServerOp::kWriteFile, w_.files[f].path,
                   w_.edits[rng_.NextBelow(w_.edits.size())]);
    }
    return op;
  }

 private:
  const World& w_;
  size_t id_;
  hac::Rng rng_;
  uint64_t count_;
  std::vector<size_t> toggles_, l1_, files_;
  std::vector<bool> toggled_, linked_, prohibited_;
};

// The reader: ReadDir (query) or GetLinkClasses (lookup) of a leaf dir.
Op ReaderOp(const World& w, hac::Rng& rng) {
  Op op;
  const std::string& leaf = w.leaves[rng.NextBelow(w.leaves.size())];
  if (rng.NextBool(0.5)) {
    op.cls = OpClass::kQuery;
    op.req = MakeRequest(ServerOp::kReadDir, leaf);
  } else {
    op.cls = OpClass::kLookup;
    op.req = MakeRequest(ServerOp::kGetLinkClasses, leaf);
  }
  return op;
}


}  // namespace

void RunReclassify(const RunOptions& opts, Report& report) {
  const auto gen0 = Clock::now();
  const World w = MakeInputs(opts.seed);
  std::vector<GeneratedFile> all = w.files;
  for (const std::string& t : w.edits) all.push_back({"edit", t, {}});
  const std::string digest = Hex(InputsDigest(all));
  report.Note("inputs: " + std::to_string(w.files.size()) + " files, " +
              std::to_string(w.sem.size()) + " semantic dirs in a 4-level dir() DAG, digest " +
              digest + ", generated in " + std::to_string(SecondsSince(gen0)) + " s");
  const hac::DurabilityOptions policy;
  report.Note("config: reclassify, closed loop, " + std::to_string(kWriters) +
              " writer threads + 1 reader thread, in-process ServiceClients, default "
              "ServiceOptions, DurableStore with the default checkpoint policy (every " +
              std::to_string(policy.checkpoint_interval_records) + " records or " +
              std::to_string(policy.checkpoint_interval_bytes) + " WAL bytes) plus a requested "
              "checkpoint every " + std::to_string(kCheckpointEvery) + " ops of each writer; "
              "Reindex every " + std::to_string(kReindexEvery) + " writer ops");

  Samples setup;
  std::unique_ptr<hac::HacFileSystem> fs;
  std::unique_ptr<hac::DurableStore> store;
  std::unique_ptr<hac::HacService> service;
  std::vector<std::unique_ptr<InProcessTarget>> clients;
  std::string data_dir;
  auto teardown = [&] {
    clients.clear();
    service.reset();
    store.reset();
    fs.reset();
    std::error_code ec;
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir, ec);
  };
  for (size_t k = 0; k < kSetups; ++k) {
    teardown();
    data_dir = FreshDataDir(opts, "load" + std::to_string(k));
    const auto t0 = Clock::now();
    fs = BuildFs(w);
    bool ok = fs != nullptr;
    if (ok) {
      auto s = AttachStore(*fs, data_dir);
      ok = s.ok();
      if (ok) store = std::move(s.value());
    }
    if (ok) {
      hac::ServiceOptions so;
      so.durable_store = store.get();
      service = std::make_unique<hac::HacService>(*fs, so);
      for (size_t c = 0; c <= kWriters; ++c) {
        clients.push_back(std::make_unique<InProcessTarget>(*service));
      }
    }
    setup.Add(SecondsSince(t0));
    if (!ok) {
      report.Check(false, "reclassify: set-up failed");
      teardown();
      return;
    }
  }
  report.Note("data dir filesystem: " + FilesystemType(data_dir));
  report.Note("counters: one facade and one service alive during the measured interval; "
              "the process-global MetricsRegistry is reset when it starts");

  std::vector<Writer> writers;
  for (size_t c = 0; c < kWriters; ++c) writers.emplace_back(w, c, opts.seed * 7919 + c);
  hac::Rng reader_rng(opts.seed * 7919 + 100);
  auto next = [&](size_t c) {
    return c < kWriters ? writers[c].Next() : ReaderOp(w, reader_rng);
  };

  // First half, after a warm-up: one caller issues the two writers' and the
  // reader's ops in turn, one op in flight, so the process CPU time an op takes
  // (caller, service and durability threads together) is its own. It runs
  // first, on the freshly built instance, so the state its ops meet does not
  // depend on how many ops the load half managed.
  size_t turn = 0;
  LoopSpec probe_spec;
  probe_spec.threads = 1;
  probe_spec.seconds = opts.seconds / 2;
  probe_spec.tag = "reclassify";
  probe_spec.next = [&](size_t) { return next(turn++ % (kWriters + 1)); };
  probe_spec.target = [&](size_t) -> Target& { return *clients[0]; };
  probe_spec.probe = true;
  const LoopResult probe = RunClosedLoop(probe_spec);
  MergeLoop(probe, report);

  // Second half, after a warm-up: all three callers. A separate client reads
  // the service's counters at both ends.
  LoadWindow win;
  win.service = true;
  auto stats_client = std::make_unique<InProcessTarget>(*service);
  hac::StatsSnapshot fs_before;
  LoopSpec spec;
  spec.threads = kWriters + 1;
  spec.seconds = opts.seconds / 2;
  spec.tag = "reclassify";
  spec.next = next;
  spec.target = [&](size_t c) -> Target& { return *clients[c]; };
  spec.pause = [&](size_t c) {
    std::this_thread::sleep_for(c < kWriters ? kWriterThink : kReaderThink);
  };
  spec.at_start = [&] {
    hac::MetricsRegistry::Global().ResetForTest();
    fs_before = stats_client->Call(MakeRequest(ServerOp::kStats, "")).stats;
    win.svc_before = service->Stats();
  };
  const LoopResult loop = RunClosedLoop(spec);
  win.svc_after = service->Stats();
  win.AddFacadeDelta(fs_before, stats_client->Call(MakeRequest(ServerOp::kStats, "")).stats);
  win.reg = hac::MetricsRegistry::Global().Snapshot();
  win.updates = loop.updates;
  MergeLoop(loop, report);

  Samples update_cpu;  // every writer op, Reindex and Checkpoint included
  for (const auto& [name, s] : probe.cpu_calls) {
    if (name.rfind("update.", 0) == 0) update_cpu.Append(s);
  }
  const Samples& lookup_cpu = CallOf(probe.cpu_calls, "lookup.GetLinkClasses");

  const uint64_t completed = loop.attempted - loop.failed;
  const auto& lat = loop.lat;
  const Samples all_cpu = AllOf(probe.cpu_calls);
  report.E2eCosts(probe.reference, all_cpu.Mean(), all_cpu.seen, lookup_cpu, update_cpu);
  report.E2e("ops_per_cpu_s", loop.CpuRate(), "1/s", completed);
  report.E2e("ops_per_s", loop.BusyRate(kWriters + 1), "1/s", completed);
  report.E2eQuantiles("lookup", lat[static_cast<size_t>(OpClass::kLookup)], "us");
  report.E2eQuantiles("query", lat[static_cast<size_t>(OpClass::kQuery)], "us");
  report.E2eQuantiles("update", lat[static_cast<size_t>(OpClass::kUpdate)], "us");
  report.NoteCalls("reclassify", loop.calls);
  report.NoteCalls("reclassify-cpu", probe.cpu_calls);
  report.E2e("setup_s", setup.Quantile(0.5), "s", setup.seen);
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
  Registry reg{win.reg};
  report.Note("reclassify: " + std::to_string(win.updates) + " acknowledged updates, " +
              std::to_string(reg.HistCount(hac::metric_names::kDurabilityFsyncUs)) +
              " WAL fsyncs, " +
              std::to_string(reg.HistCount(hac::metric_names::kDurabilityCheckpointUs)) +
              " checkpoints");

  // Acknowledged means durable: settle data consistency through the service,
  // stop it (which seals the store), then recover the data dir independently.
  report.Check(clients[0]->Call(MakeRequest(ServerOp::kReindex, "")).ok(), "reclassify: final Reindex failed");
  stats_client.reset();
  clients.clear();
  service->Stop();
  service.reset();
  store.reset();
  const uint64_t live = hac::StateDigest(*fs);
  const hac::FsckReport live_fsck = hac::RunFsck(*fs);
  report.Check(live_fsck.Clean(), "reclassify: fsck of the live state: " + live_fsck.ToString());
  fs.reset();
  {
    hac::DurabilityOptions o;
    o.data_dir = data_dir;
    auto reopened = hac::DurableStore::Open(o);
    auto recovered = reopened.ok() ? reopened.value()->Recover()
                                   : hac::Result<std::unique_ptr<hac::HacFileSystem>>(
                                         reopened.error());
    if (!recovered.ok()) {
      report.Check(false, "reclassify: recovery failed: " + recovered.error().ToString());
    } else {
      report.Check(hac::StateDigest(*recovered.value()) == live,
                   "reclassify: recovered StateDigest differs from the live state");
      const hac::FsckReport rec_fsck = hac::RunFsck(*recovered.value());
      report.Check(rec_fsck.Clean(), "reclassify: fsck after recovery: " + rec_fsck.ToString());
    }
  }
  teardown();

  if (opts.trace) {
    AddLoadLayers(win, report);
    TracePlan plan;
    plan.durable = true;
    plan.build = [&w] { return BuildFs(w); };
    std::vector<Writer> trace_writers;
    for (size_t c = 0; c < kWriters; ++c) trace_writers.emplace_back(w, c, opts.seed * 104729 + c);
    hac::Rng rng(opts.seed * 104729 + 99);
    for (size_t i = 0; i < kTraceOps; ++i) {
      const size_t who = i % (kWriters + 1);
      plan.ops.push_back(who < kWriters ? trace_writers[who].Next() : ReaderOp(w, rng));
    }
    RunTracedPasses(opts, plan, report);
  }
}

}  // namespace perfbench
