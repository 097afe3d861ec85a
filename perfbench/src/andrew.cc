// Workload `andrew`: the paper's five Table-1 phases (RunAndrew) repeated on one
// thread against HacFileSystem directly — no service, no index evaluation, no
// propagation. Every file-system call goes through a timing decorator and is
// timed per call. The gated lookup figures are StatPath (the Scan phase) and the
// gated update figures are creating Opens (the Copy and Make phases), one kind of
// work each. The other calls are printed per call and count towards op_cost_rt.
#include <cstdio>
#include <type_traits>

#include "perfbench/src/bench.h"
#include "perfbench/src/textgen.h"
#include "src/workload/andrew.h"

namespace perfbench {
namespace {

using hac::Fd;
using hac::Result;
using hac::ServerOp;

// Compute rounds per file in the Make phase. The default (24) makes the phase
// compute-bound; one round keeps file-system calls dominant.
constexpr size_t kCompilePasses = 1;
constexpr size_t kSetups = 21;
// The facade never reuses document ids, so its registry grows with every
// created file. A fresh instance every this many iterations (built outside the
// timed region) keeps state, memory and per-call cost independent of how many
// iterations a run completes.
constexpr size_t kItersPerInstance = 100;

hac::AndrewConfig Config(uint64_t seed) {
  hac::AndrewConfig cfg;
  cfg.seed = seed;
  cfg.compile_passes = kCompilePasses;
  return cfg;
}

// FsInterface decorator: times each call into the facade and, when `record` is
// set, appends it to an op stream the traced passes replay. Calls are timed by
// the wall clock: a CPU-time clock read is a system call that costs about as
// much as a StatPath, and this thread hands no work to another.
class TimedFs final : public hac::FsInterface {
 public:
  explicit TimedFs(hac::HacFileSystem& fs) : fs_(&fs) {}
  void Retarget(hac::HacFileSystem& fs) { fs_ = &fs; }

  Samples by_call[kOpClasses][hac::kServerOpCount];
  uint64_t calls = 0;
  bool measuring = false;  // set while the interval is measured
  std::vector<Op>* record = nullptr;

  CallSamples Calls() const {
    CallSamples out;
    for (size_t c = 0; c < kOpClasses; ++c) {
      for (size_t o = 0; o < hac::kServerOpCount; ++o) {
        if (by_call[c][o].seen > 0) {
          out[std::string(ClassName(static_cast<OpClass>(c))) + "." + hac::kServerOpNames[o]] =
              by_call[c][o];
        }
      }
    }
    return out;
  }
  const Samples& Of(OpClass c, ServerOp op) const {
    return by_call[static_cast<size_t>(c)][static_cast<size_t>(op)];
  }

  Result<void> Mkdir(const std::string& p) override {
    return Time(OpClass::kUpdate, [&] { return fs_->Mkdir(p); }, MakeRequest(ServerOp::kMkdir, p));
  }
  Result<void> Rmdir(const std::string& p) override {
    return Time(OpClass::kUpdate, [&] { return fs_->Rmdir(p); }, MakeRequest(ServerOp::kRmdir, p));
  }
  Result<std::vector<hac::DirEntry>> ReadDir(const std::string& p) override {
    return Time(OpClass::kOther, [&] { return fs_->ReadDir(p); }, MakeRequest(ServerOp::kReadDir, p));
  }
  Result<Fd> Open(const std::string& p, uint32_t flags) override {
    const OpClass cls = (flags & hac::kOpenCreate) != 0 ? OpClass::kUpdate : OpClass::kOther;
    auto r = Time(cls, ServerOp::kOpen, [&] { return fs_->Open(p, flags); }, std::nullopt);
    if (record != nullptr) {
      hac::ServerRequest req = MakeRequest(ServerOp::kOpen, p);
      req.flags = flags;
      req.fd = r.ok() ? r.value() : -1;  // a recorded Open keeps its result here
      Append(req, r.ok(), cls);
    }
    return r;
  }
  Result<void> Close(Fd fd) override {
    hac::ServerRequest req = MakeRequest(ServerOp::kClose, "");
    req.fd = fd;
    return Time(OpClass::kOther, [&] { return fs_->Close(fd); }, req);
  }
  Result<size_t> Read(Fd fd, void* buf, size_t n) override {
    hac::ServerRequest req = MakeRequest(ServerOp::kReadFd, "");
    req.fd = fd;
    req.size = n;
    return Time(OpClass::kOther, [&] { return fs_->Read(fd, buf, n); }, req);
  }
  Result<size_t> Write(Fd fd, const void* buf, size_t n) override {
    hac::ServerRequest req = MakeRequest(ServerOp::kWriteFd, "");
    req.fd = fd;
    if (record != nullptr) {
      req.aux.assign(static_cast<const char*>(buf), n);
    }
    return Time(OpClass::kOther, [&] { return fs_->Write(fd, buf, n); }, req);
  }
  Result<uint64_t> Seek(Fd fd, uint64_t off) override {
    hac::ServerRequest req = MakeRequest(ServerOp::kSeek, "");
    req.fd = fd;
    req.size = off;
    return Time(OpClass::kOther, [&] { return fs_->Seek(fd, off); }, req);
  }
  Result<void> Unlink(const std::string& p) override {
    return Time(OpClass::kUpdate, [&] { return fs_->Unlink(p); }, MakeRequest(ServerOp::kUnlink, p));
  }
  Result<void> Rename(const std::string& from, const std::string& to) override {
    hac::ServerRequest req = MakeRequest(ServerOp::kRename, from);
    req.aux = to;
    return Time(OpClass::kUpdate, [&] { return fs_->Rename(from, to); }, req);
  }
  Result<void> Symlink(const std::string& target, const std::string& link) override {
    hac::ServerRequest req = MakeRequest(ServerOp::kSymlink, link);
    req.aux = target;
    return Time(OpClass::kUpdate, [&] { return fs_->Symlink(target, link); }, req);
  }
  Result<std::string> ReadLink(const std::string& p) override {
    return Time(OpClass::kLookup, [&] { return fs_->ReadLink(p); }, MakeRequest(ServerOp::kReadLink, p));
  }
  Result<hac::Stat> StatPath(const std::string& p) override {
    return Time(OpClass::kLookup, [&] { return fs_->StatPath(p); }, MakeRequest(ServerOp::kStat, p));
  }
  Result<hac::Stat> LstatPath(const std::string& p) override {
    return Time(OpClass::kLookup, [&] { return fs_->LstatPath(p); }, MakeRequest(ServerOp::kLstat, p));
  }

 private:
  template <typename F>
  std::invoke_result_t<F> Time(OpClass cls, F&& f, const hac::ServerRequest& req) {
    return Time(cls, req.op, std::forward<F>(f), req);
  }
  template <typename F>
  std::invoke_result_t<F> Time(OpClass cls, ServerOp op, F&& f,
                               std::optional<hac::ServerRequest> req) {
    const auto a = Clock::now();
    auto r = f();
    const double us = UsBetween(a, Clock::now());
    if (measuring) {
      ++calls;
      by_call[static_cast<size_t>(cls)][static_cast<size_t>(op)].Add(us);
    }
    if (record != nullptr && req.has_value()) {
      Append(*req, r.ok(), cls);
    }
    return r;
  }

  void Append(const hac::ServerRequest& req, bool ok, OpClass cls) {
    Op op;
    op.cls = cls;
    op.req = req;
    op.maps_fd = req.op == ServerOp::kOpen || req.op == ServerOp::kClose ||
                 req.op == ServerOp::kReadFd || req.op == ServerOp::kWriteFd ||
                 req.op == ServerOp::kSeek;
    op.expect_ok = ok;
    record->push_back(std::move(op));
  }

  hac::HacFileSystem* fs_;
};

Result<void> RemoveTree(hac::HacFileSystem& fs, const std::string& dir) {
  HAC_ASSIGN_OR_RETURN(std::vector<hac::DirEntry> entries, fs.ReadDir(dir));
  for (const hac::DirEntry& e : entries) {
    const std::string child = dir + "/" + e.name;
    if (e.type == hac::NodeType::kDirectory) {
      HAC_RETURN_IF_ERROR(RemoveTree(fs, child));
    } else {
      HAC_RETURN_IF_ERROR(fs.Unlink(child));
    }
  }
  return fs.Rmdir(dir);
}

std::unique_ptr<hac::HacFileSystem> Build(const hac::AndrewConfig& cfg) {
  auto fs = std::make_unique<hac::HacFileSystem>();
  if (!hac::BuildAndrewSource(*fs, cfg).ok() || !fs->Reindex().ok()) {
    return nullptr;
  }
  return fs;
}

}  // namespace

void RunAndrewWorkload(const RunOptions& opts, Report& report) {
  const hac::AndrewConfig cfg = Config(opts.seed);
  report.Note("config: andrew dirs=" + std::to_string(cfg.dirs) +
              " files_per_dir=" + std::to_string(cfg.files_per_dir) +
              " functions_per_file=" + std::to_string(cfg.functions_per_file) +
              " compile_passes=" + std::to_string(cfg.compile_passes) +
              " (cut from the default 24 so file-system calls dominate); 1 thread, "
              "HacFileSystem directly, destination tree removed between iterations "
              "outside the timed region");

  // Set-up: an empty file system to the source tree, several times; the last
  // instance is the one measured.
  Samples setup;
  std::unique_ptr<hac::HacFileSystem> fs;
  for (size_t k = 0; k < kSetups; ++k) {
    fs.reset();
    const auto t0 = Clock::now();
    fs = Build(cfg);
    setup.Add(SecondsSince(t0));
    if (!fs) {
      report.Check(false, "andrew: BuildAndrewSource failed");
      return;
    }
  }

  {
    // The inputs are the source tree BuildAndrewSource generates from the seed.
    uint64_t h = kFnvBasis;
    auto tree = fs->ListTree(cfg.src_root);
    for (const std::string& p : tree.ok() ? tree.value() : std::vector<std::string>{}) {
      auto body = fs->ReadFileToString(p);
      h = Fnv(Fnv(h, p), body.ok() ? body.value() : "");
    }
    report.Note("inputs: Andrew source tree of " +
                std::to_string(tree.ok() ? tree.value().size() : 0) + " entries, digest " +
                Hex(h));
  }
  report.Note("counters: one facade alive during the measured interval; the process-global "
              "MetricsRegistry is reset when it starts");

  LoadWindow w;
  TimedFs timed(*fs);
  Samples runs;
  double timed_s = 0;
  double timed_cpu_s = 0;
  HostReference reference;
  Samples reference_us;
  hac::AndrewConfig run_cfg = cfg;
  run_cfg.dst_root = "/andrew/dst";
  hac::StatsSnapshot before;
  // One untimed warm-up second, then the measured interval.
  const auto start = Clock::now() + std::chrono::seconds(1);
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(opts.seconds));
  uint64_t iterations = 0;
  while (Clock::now() < deadline) {
    if (!timed.measuring && Clock::now() >= start) {
      timed.measuring = true;
      hac::MetricsRegistry::Global().ResetForTest();
      before = fs->Stats();
    }
    if (iterations > 0 && iterations % kItersPerInstance == 0) {
      if (timed.measuring) w.AddFacadeDelta(before, fs->Stats());
      fs.reset();  // one facade alive at a time
      fs = Build(cfg);
      if (!fs) {
        report.Check(false, "andrew: rebuilding the instance failed");
        return;
      }
      timed.Retarget(*fs);
      before = fs->Stats();
    }
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    auto r = hac::RunAndrew(timed, run_cfg);
    const double s = SecondsSince(t0);
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    ++iterations;
    if (timed.measuring) {
      timed_s += s;
      timed_cpu_s += cpu_s;
      ++report.attempted;
      runs.Add(s * 1000.0);
      reference.RunDue(reference_us);  // between iterations, outside their time
    }
    if (!r.ok()) {
      report.failed += timed.measuring;
      report.Check(false, "andrew: a phase failed: " + r.error().ToString());
      break;
    }
    auto listing = fs->ReadDir(run_cfg.dst_root + "/sub0");
    report.Check(listing.ok() && listing.value().size() == 2 * cfg.files_per_dir,
                 "andrew: destination tree incomplete after an iteration");
    report.Check(RemoveTree(*fs, run_cfg.dst_root).ok(), "andrew: removing the tree failed");
    // No durability layer drains the facade's journal here; drop its records.
    (void)fs->DrainJournal();
  }
  w.AddFacadeDelta(before, fs->Stats());
  w.reg = hac::MetricsRegistry::Global().Snapshot();
  const CallSamples calls = timed.Calls();
  for (const auto& [name, s] : calls) {
    if (name.rfind("update.", 0) == 0) w.updates += s.seen;
  }

  const uint64_t n_calls = timed.calls;
  const Samples& lookup = timed.Of(OpClass::kLookup, ServerOp::kStat);
  const Samples& update = timed.Of(OpClass::kUpdate, ServerOp::kOpen);
  const double cpu_per_call_us =
      n_calls > 0 ? timed_cpu_s * 1e6 / static_cast<double>(n_calls) : 0;
  report.E2eCosts(reference_us, cpu_per_call_us, n_calls, lookup, update);
  report.E2e("ops_per_s", timed_s > 0 ? static_cast<double>(n_calls) / timed_s : 0, "1/s",
             n_calls);
  report.E2eQuantiles("lookup", lookup, "us");
  report.E2eQuantiles("update", update, "us");
  report.E2e("andrew_run_ms", runs.Quantile(0.5), "ms", runs.seen);
  report.E2e("setup_s", setup.Quantile(0.5), "s", setup.seen);
  report.NoteCalls("andrew", calls);
  report.Note("andrew: " + std::to_string(runs.seen) + " measured iterations, " +
              std::to_string(n_calls) + " file-system calls, a fresh instance every " +
              std::to_string(kItersPerInstance) + " iterations");

  if (opts.trace) {
    AddLoadLayers(w, report);
    fs.reset();  // one facade alive at a time
    TracePlan plan;
    plan.build = [cfg] { return Build(cfg); };
    {
      auto rec_fs = Build(cfg);
      if (!rec_fs) {
        report.Check(false, "andrew: recording instance build failed");
        return;
      }
      TimedFs recorder(*rec_fs);
      recorder.record = &plan.ops;
      report.Check(hac::RunAndrew(recorder, run_cfg).ok(), "andrew: recording run failed");
    }
    RunTracedPasses(opts, plan, report);
  }
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
