#include <pthread.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <cstdio>
#include <filesystem>

#include "perfbench/src/bench.h"
#include "perfbench/src/textgen.h"

namespace perfbench {

using hac::ErrorCode;
using hac::ServerOp;
using hac::ServerRequest;
using hac::ServerResponse;

double Samples::Quantile(double q) const {
  if (v.empty()) {
    return 0;
  }
  std::vector<double> s = v;
  const size_t rank = std::min(s.size() - 1, static_cast<size_t>(q * static_cast<double>(s.size())));
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank), s.end());
  return s[rank];
}

double Samples::Mean() const {
  return seen == 0 ? 0 : sum / static_cast<double>(seen);
}

void Report::E2eQuantiles(const std::string& prefix, const Samples& s,
                          const std::string& unit, double scale) {
  E2e(prefix + "_mean_" + unit, s.Mean() * scale, unit, s.seen);
  E2e(prefix + "_p50_" + unit, s.Quantile(0.5) * scale, unit, s.seen);
  E2e(prefix + "_p90_" + unit, s.Quantile(0.90) * scale, unit, s.seen);
  E2e(prefix + "_p99_" + unit, s.Quantile(0.99) * scale, unit, s.seen);
}

void Report::E2eCosts(const Samples& reference, double op_cpu_us, uint64_t ops,
                      const Samples& lookup, const Samples& update) {
  const double rt = reference.Quantile(0.5);
  auto per_rt = [rt](double us) { return rt > 0 ? us / rt : 0; };
  E2e("op_cost_rt", per_rt(op_cpu_us), "rt", ops);
  E2e("lookup_cost_rt", per_rt(lookup.Mean()), "rt", lookup.seen);
  E2e("update_cost_rt", per_rt(update.Mean()), "rt", update.seen);
  E2e("reference_rt_us", rt, "us", reference.seen);
  E2e("op_cpu_us", op_cpu_us, "us", ops);
  E2e("lookup_us", lookup.Mean(), "us", lookup.seen);
  E2e("update_us", update.Mean(), "us", update.seen);
}

Samples AllOf(const CallSamples& calls) {
  Samples all;
  for (const auto& [name, s] : calls) all.Append(s);
  return all;
}

void Report::NoteCalls(const std::string& tag, const CallSamples& calls) {
  for (const auto& [name, s] : calls) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "call %s %-22s n=%-8llu mean=%.4g us p50=%.4g us p90=%.4g us p99=%.4g us",
                  tag.c_str(), name.c_str(), static_cast<unsigned long long>(s.seen), s.Mean(),
                  s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99));
    Note(buf);
  }
}

namespace {
double CpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
std::optional<clockid_t> g_idle_spinner;
}  // namespace

void SetIdleSpinner(clockid_t clock) { g_idle_spinner = clock; }
void ClearIdleSpinner() { g_idle_spinner.reset(); }

double ProcessCpuSeconds() {
  const double total = CpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
  return g_idle_spinner ? total - CpuClockSeconds(*g_idle_spinner) : total;
}

HostReference::HostReference() {
  if (pipe(to_helper_) != 0 || pipe(from_helper_) != 0) {
    return;
  }
  helper_ = std::thread([this] {
    char c;
    while (read(to_helper_[0], &c, 1) == 1 && c != 0) {
      if (write(from_helper_[1], &c, 1) != 1) break;
    }
  });
  if (pthread_getcpuclockid(helper_.native_handle(), &helper_clock_) != 0) {
    helper_clock_ = CLOCK_THREAD_CPUTIME_ID;  // counts the caller only
  }
}

HostReference::~HostReference() {
  if (helper_.joinable()) {
    const char stop = 0;
    if (write(to_helper_[1], &stop, 1) == 1) {
      helper_.join();
    } else {
      helper_.detach();
    }
  }
  for (int fd : {to_helper_[0], to_helper_[1], from_helper_[0], from_helper_[1]}) {
    if (fd >= 0) close(fd);
  }
}

double HostReference::RunUs() {
  auto cpu = [this] {
    return CpuClockSeconds(CLOCK_THREAD_CPUTIME_ID) + CpuClockSeconds(helper_clock_);
  };
  const double a = cpu();
  char c = 1;
  for (int i = 0; i < kRoundTrips; ++i) {
    if (write(to_helper_[1], &c, 1) != 1 || read(from_helper_[0], &c, 1) != 1) break;
  }
  return (cpu() - a) * 1e6 / kRoundTrips;
}

void HostReference::RunDue(Samples& into) {
  if (Clock::now() < next_) return;
  into.Add(RunUs());
  next_ = Clock::now() + kEvery;
}

double LoopResult::CpuRate() const {
  return cpu_s > 0 ? static_cast<double>(attempted - failed) / cpu_s : 0;
}

double LoopResult::BusyRate(size_t threads) const {
  return busy_s > 0 ? static_cast<double>(attempted - failed) * static_cast<double>(threads) /
                          busy_s
                    : 0;
}

const Samples& CallOf(const CallSamples& calls, const std::string& name) {
  static const Samples kNone;
  auto it = calls.find(name);
  return it == calls.end() ? kNone : it->second;
}

std::string CallName(const Op& op) {
  switch (op.shape) {
    case OpShape::kFirstPage:
      return std::string(ClassName(op.cls)) + ".cursor_first_page";
    case OpShape::kDrain:
      return std::string(ClassName(op.cls)) + ".cursor_drain";
    case OpShape::kSingle:
      break;
  }
  return std::string(ClassName(op.cls)) + "." + hac::ServerOpName(op.req.op);
}

LoopResult RunClosedLoop(const LoopSpec& spec) {
  std::vector<LoopResult> per(spec.threads);
  std::atomic<bool> stop{false};
  const auto start = Clock::now() + std::chrono::seconds(1);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < spec.threads; ++t) {
    threads.emplace_back([&, t] {
      LoopResult& r = per[t];
      Target& target = spec.target(t);
      std::optional<HostReference> reference;
      if (spec.probe) reference.emplace();
      while (!stop.load(std::memory_order_relaxed)) {
        const Op op = spec.next(t);
        const double cpu_a = spec.probe ? ProcessCpuSeconds() : 0;
        const auto a = Clock::now();
        OpOutcome out = RunOp(target, op);
        const auto b = Clock::now();
        const double cpu_b = spec.probe ? ProcessCpuSeconds() : 0;
        const bool measured = a >= start;
        auto failure = [&](const std::string& what) {
          if (r.failures.size() < 5) {
            r.failures.push_back(spec.tag + ": " + hac::ServerOpName(op.req.op) + " " +
                                 op.req.path + " " + what);
          }
        };
        if (!out.ok) {
          if (!out.refused) failure(std::string("failed: ") + std::string(hac::ErrorCodeName(out.code)));
          if (measured) {
            ++r.attempted;
            ++r.failed;
            r.busy_s += UsBetween(a, b) * 1e-6;
          }
        } else {
          if (op.expect != 0 && out.digest != op.expect) failure("differs from the reference");
          if (measured) {
            const double us = UsBetween(a, b);
            ++r.attempted;
            r.busy_s += us * 1e-6;
            r.lat[static_cast<size_t>(op.cls)].Add(us);
            r.calls[CallName(op)].Add(us);
            if (spec.probe) r.cpu_calls[CallName(op)].Add((cpu_b - cpu_a) * 1e6);
            if (op.cls == OpClass::kScan) {
              ++r.scans;
              r.pages += out.pages;
              r.restarts += out.restarts;
            }
            r.updates += op.cls == OpClass::kUpdate;
          }
        }
        if (reference && measured) reference->RunDue(r.reference);
        if (spec.pause) spec.pause(t);
      }
    });
  }
  std::this_thread::sleep_until(start);
  const double cpu0 = ProcessCpuSeconds();
  if (spec.at_start) spec.at_start();
  std::this_thread::sleep_for(std::chrono::duration<double>(spec.seconds));
  stop = true;
  for (auto& th : threads) th.join();
  LoopResult total;
  total.cpu_s = ProcessCpuSeconds() - cpu0;
  for (const LoopResult& r : per) {
    for (size_t c = 0; c < kOpClasses; ++c) total.lat[c].Append(r.lat[c]);
    for (const auto& [name, s] : r.calls) total.calls[name].Append(s);
    for (const auto& [name, s] : r.cpu_calls) total.cpu_calls[name].Append(s);
    total.reference.Append(r.reference);
    total.busy_s += r.busy_s;
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.scans += r.scans;
    total.pages += r.pages;
    total.restarts += r.restarts;
    total.updates += r.updates;
    total.failures.insert(total.failures.end(), r.failures.begin(), r.failures.end());
  }
  return total;
}

void MergeLoop(const LoopResult& r, Report& report) {
  report.attempted += r.attempted;
  report.failed += r.failed;
  for (const std::string& f : r.failures) report.Check(false, f);
}

const char* ClassName(OpClass c) {
  switch (c) {
    case OpClass::kLookup:
      return "lookup";
    case OpClass::kQuery:
      return "query";
    case OpClass::kScan:
      return "scan";
    case OpClass::kUpdate:
      return "update";
    case OpClass::kOther:
      break;
  }
  return "other";
}

namespace {

template <typename T>
bool Fill(const hac::Result<T>& r, ServerResponse& resp) {
  if (!r.ok()) {
    resp.error = r.error();
    return false;
  }
  return true;
}

ServerResponse FromVoid(const hac::Result<void>& r) {
  ServerResponse resp;
  Fill(r, resp);
  return resp;
}

}  // namespace

ServerResponse FacadeTarget::Call(const ServerRequest& req) {
  ServerResponse resp;
  switch (req.op) {
    case ServerOp::kStat:
    case ServerOp::kLstat: {
      auto r = req.op == ServerOp::kStat ? fs_.StatPath(req.path) : fs_.LstatPath(req.path);
      if (Fill(r, resp)) {
        resp.st = r.value();
      }
      return resp;
    }
    case ServerOp::kReadDir: {
      auto r = fs_.ReadDir(req.path);
      if (Fill(r, resp)) {
        resp.entries = std::move(r.value());
      }
      return resp;
    }
    case ServerOp::kReadLink: {
      auto r = fs_.ReadLink(req.path);
      if (Fill(r, resp)) {
        resp.text = std::move(r.value());
      }
      return resp;
    }
    case ServerOp::kSearch: {
      auto r = fs_.Search(req.aux, req.path.empty() ? "/" : req.path);
      if (Fill(r, resp)) {
        resp.paths = std::move(r.value());
      }
      return resp;
    }
    case ServerOp::kGetLinkClasses: {
      auto r = fs_.GetLinkClasses(req.path);
      if (Fill(r, resp)) {
        resp.links = std::move(r.value());
      }
      return resp;
    }
    case ServerOp::kOpen: {
      auto r = fs_.Open(req.path, req.flags);
      if (Fill(r, resp)) {
        resp.fd = r.value();
      }
      return resp;
    }
    case ServerOp::kReadFd: {
      std::string buf(req.size, '\0');
      auto r = fs_.Read(req.fd, buf.data(), buf.size());
      if (Fill(r, resp)) {
        buf.resize(r.value());
        resp.text = std::move(buf);
      }
      return resp;
    }
    case ServerOp::kWriteFd: {
      auto r = fs_.Write(req.fd, req.aux.data(), req.aux.size());
      if (Fill(r, resp)) {
        resp.size = r.value();
      }
      return resp;
    }
    case ServerOp::kStats:
      resp.stats = fs_.Stats();
      return resp;
    case ServerOp::kClose:
      return FromVoid(fs_.Close(req.fd));
    case ServerOp::kWriteFile:
      return FromVoid(fs_.WriteFile(req.path, req.aux));
    case ServerOp::kMkdir:
      return FromVoid(fs_.Mkdir(req.path));
    case ServerOp::kRmdir:
      return FromVoid(fs_.Rmdir(req.path));
    case ServerOp::kUnlink:
      return FromVoid(fs_.Unlink(req.path));
    case ServerOp::kSymlink:
      return FromVoid(fs_.Symlink(req.aux, req.path));
    case ServerOp::kSMkdir:
      return FromVoid(fs_.SMkdir(req.path, req.aux));
    case ServerOp::kSetQuery:
      return FromVoid(fs_.SetQuery(req.path, req.aux));
    case ServerOp::kProhibit:
      return FromVoid(fs_.Prohibit(req.path, req.aux));
    case ServerOp::kUnprohibit:
      return FromVoid(fs_.Unprohibit(req.path, req.aux));
    case ServerOp::kReindex:
      return FromVoid(fs_.Reindex());
    case ServerOp::kCheckpoint:
      return resp;  // as the service without a store: the caller owns the store
    case ServerOp::kOpenCursor:
      resp.fd = next_cursor_++;
      cursors_[resp.fd] = Cursor{req.path, req.aux, {}, false};
      return resp;
    case ServerOp::kFetchPage: {
      auto it = cursors_.find(req.fd);
      if (it == cursors_.end()) {
        resp.error = hac::Error(ErrorCode::kBadDescriptor, "no such cursor");
        return resp;
      }
      Cursor& c = it->second;
      const hac::PageToken* token = c.started ? &c.token : nullptr;
      const size_t max = std::min<size_t>(req.size, hac::kMaxPageEntries);
      bool ok;
      if (c.query.empty()) {
        auto r = fs_.ReadDirPage(c.path, token, max);
        if ((ok = Fill(r, resp))) {
          resp.entries = std::move(r.value().entries);
          resp.size = r.value().has_more ? 1 : 0;
          c.token = r.value().next;
        }
      } else {
        auto r = fs_.SearchPage(c.query, c.path, token, max);
        if ((ok = Fill(r, resp))) {
          resp.paths = std::move(r.value().paths);
          resp.size = r.value().has_more ? 1 : 0;
          c.token = r.value().next;
        }
      }
      c.started = true;
      if (!ok) {
        cursors_.erase(it);  // every fetch failure closes the cursor, as in the service
      }
      return resp;
    }
    case ServerOp::kCloseCursor:
      if (cursors_.erase(req.fd) == 0) {
        resp.error = hac::Error(ErrorCode::kBadDescriptor, "no such cursor");
      }
      return resp;
    default:
      resp.error = hac::Error(ErrorCode::kUnsupported, "op not driven by the benchmark");
      return resp;
  }
}

uint64_t EntriesDigest(const std::vector<hac::DirEntry>& entries) {
  uint64_t h = kFnvBasis;
  for (const hac::DirEntry& e : entries) {
    h = Fnv(h, e.name);
    h = Fnv(h, std::to_string(static_cast<int>(e.type)));
  }
  return h;
}

uint64_t PathsDigest(const std::vector<std::string>& paths) {
  uint64_t h = kFnvBasis;
  for (const std::string& p : paths) {
    h = Fnv(h, p);
  }
  return h;
}

uint64_t ResultDigest(const ServerResponse& resp) {
  uint64_t h = Fnv(EntriesDigest(resp.entries), std::to_string(PathsDigest(resp.paths)));
  h = Fnv(h, resp.text);
  h = Fnv(h, std::to_string(resp.st.size) + ":" + std::to_string(static_cast<int>(resp.st.type)));
  for (const auto& [name, target] : resp.links.permanent) {
    h = Fnv(Fnv(h, name), target);
  }
  for (const auto& [name, target] : resp.links.transient) {
    h = Fnv(Fnv(h, name), target);
  }
  for (const std::string& p : resp.links.prohibited) {
    h = Fnv(h, p);
  }
  return h;
}

OpOutcome RunOp(Target& t, const Op& op, std::map<hac::Fd, hac::Fd>* fds,
                const StepHook& hook) {
  auto call = [&](const ServerRequest& r) {
    const auto a = Clock::now();
    ServerResponse resp = t.Call(r);
    if (hook) {
      hook(r, resp, a, Clock::now());
    }
    return resp;
  };
  OpOutcome out;
  auto fail = [&](const ServerResponse& resp) {
    out.ok = false;
    out.code = resp.error.code;
    out.refused = resp.error.code == ErrorCode::kOverloaded;
    return out;
  };

  if (op.shape == OpShape::kSingle) {
    ServerResponse resp;
    if (op.maps_fd && op.req.op != ServerOp::kOpen) {
      ServerRequest r = op.req;
      auto it = fds->find(op.req.fd);
      r.fd = it == fds->end() ? -1 : it->second;
      resp = call(r);
    } else {
      resp = call(op.req);
    }
    if (!resp.ok()) {
      return fail(resp);
    }
    if (op.maps_fd && op.req.op == ServerOp::kOpen) {
      (*fds)[op.req.fd] = resp.fd;  // a recorded Open keeps its result descriptor in fd
    }
    out.ok = true;
    out.digest = ResultDigest(resp);
    return out;
  }

  ServerRequest open{ServerOp::kOpenCursor, op.req.path, op.req.aux, -1, 0, 0};
  std::vector<hac::DirEntry> entries;
  std::vector<std::string> paths;
  constexpr size_t kMaxRestarts = 200;
  for (;;) {
    ServerResponse opened = call(open);
    if (!opened.ok()) {
      return fail(opened);
    }
    entries.clear();
    paths.clear();
    bool stale = false;
    for (;;) {
      ServerResponse page = call(ServerRequest{ServerOp::kFetchPage, "", "", opened.fd, 0, 0});
      if (!page.ok()) {
        if (op.shape == OpShape::kDrain && page.error.code == ErrorCode::kStaleCursor &&
            out.restarts < kMaxRestarts) {
          stale = true;  // the failed fetch closed the cursor; reopen and restart
          ++out.restarts;
          break;
        }
        return fail(page);
      }
      ++out.pages;
      entries.insert(entries.end(), page.entries.begin(), page.entries.end());
      paths.insert(paths.end(), page.paths.begin(), page.paths.end());
      if (op.shape == OpShape::kFirstPage || page.size == 0) {
        break;
      }
    }
    if (stale) {
      continue;
    }
    ServerResponse closed = call(ServerRequest{ServerOp::kCloseCursor, "", "", opened.fd, 0, 0});
    if (!closed.ok()) {
      return fail(closed);
    }
    break;
  }
  out.ok = true;
  out.digest = op.req.aux.empty() ? EntriesDigest(entries) : PathsDigest(paths);
  return out;
}

int64_t SpanLog::Add(const char* name, Clock::time_point a, Clock::time_point b,
                     int64_t parent, uint64_t request) {
  auto ns = [&](Clock::time_point t) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
  };
  spans_.push_back({name, ns(a), ns(b), parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"parent\": %lld, \"request\": %llu}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> PerRequestUs(const SpanLog& log, const char* name, size_t ops) {
  std::vector<double> out(ops, 0.0);
  const std::string want = name;
  for (const Span& s : log.spans()) {
    if (s.request < ops && want == s.name) {
      out[s.request] += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    }
  }
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint64_t Registry::Counter(const char* name) const {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

const hac::HistogramSnapshot* Registry::Histogram(const char* name) const {
  for (const auto& h : snap.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

double Registry::HistP(const char* name, double q) const {
  const auto* h = Histogram(name);
  if (h == nullptr || h->count == 0) {
    return 0;
  }
  return q >= 0.99 ? h->p99 : h->p50;
}

double Registry::HistMean(const char* name) const {
  const auto* h = Histogram(name);
  return h == nullptr ? 0 : h->mean;
}

uint64_t Registry::HistCount(const char* name) const {
  const auto* h = Histogram(name);
  return h == nullptr ? 0 : h->count;
}

std::string FreshDataDir(const RunOptions& opts, const std::string& tag) {
  const std::string dir = opts.out_dir + "/data-" + opts.workload + "-" +
                          std::to_string(opts.seed) + "-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

std::string FilesystemType(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench
