// Shared machinery of the benchmark: timing samples, the run report, the op model
// every workload drives through HAC's public API, and the span recorder of the
// traced run. See perfbench/METRICS.md for what each metric means.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/durability.h"
#include "src/core/hac_file_system.h"
#include "src/server/client.h"
#include "src/server/tcp_client.h"
#include "src/support/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// CPU time the whole process (every thread, user and system) has used, less
// that of the idle spinner if one is set. The kernel leaves out time the
// hypervisor ran other guests (steal) and time other processes ran, so on a
// shared host it moves far less than wall-clock time.
double ProcessCpuSeconds();
// Names a thread that runs only when no other thread of the process can (see
// KeepAwake in main.cc): its CPU time is idle time, not the program's. Set it
// before any measurement starts and clear it before the thread ends.
void SetIdleSpinner(clockid_t clock);
void ClearIdleSpinner();

// Latency (or any) samples; quantiles by nearest rank over a sorted copy. Past
// kCap values the set becomes a uniform reservoir sample of everything added,
// so memory stays fixed however many operations a run completes. The mean is
// exact: it sums every value added.
struct Samples {
  static constexpr size_t kCap = 8192;
  std::vector<double> v;
  uint64_t seen = 0;
  double sum = 0;
  uint64_t rng = 0x9E3779B97F4A7C15ULL;  // xorshift state for reservoir slots
  void Add(double x) {
    ++seen;
    sum += x;
    if (v.size() < kCap) {
      if (v.empty()) v.reserve(kCap);
      v.push_back(x);
      return;
    }
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const uint64_t slot = rng % seen;
    if (slot < kCap) v[slot] = x;
  }
  void Append(const Samples& o) {
    v.insert(v.end(), o.v.begin(), o.v.end());
    seen += o.seen;
    sum += o.sum;
  }
  size_t size() const { return v.size(); }
  double Quantile(double q) const;
  double Mean() const;
};

// Latency samples keyed by call (see CallName), for the per-call lines a run
// prints beside its gated figures.
using CallSamples = std::map<std::string, Samples>;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // 0 = not a sampled quantity (a ratio or a count)
};

// Everything one run reports. Workloads fill it; main prints it.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // refused (kOverloaded) or failed operations
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;          // printed as-is, one line each
  std::vector<std::string> check_failures;  // any entry makes the run incorrect

  void Check(bool ok, const std::string& what) {
    if (!ok && check_failures.size() < 20) {
      check_failures.push_back(what);
    }
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void E2e(const std::string& name, double value, const std::string& unit, size_t n = 0) {
    e2e.push_back({name, value, unit, n});
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t n = 0) {
    layers.push_back({name, value, unit, n});
  }
  // Mean, p50, p90 and p99 of `s` as <prefix>_mean_<unit>, _p50_, _p90_ and _p99_.
  void E2eQuantiles(const std::string& prefix, const Samples& s, const std::string& unit,
                    double scale = 1.0);
  // The gated costs, each a mean CPU time divided by the median HostReference
  // round trip measured beside it (`reference`, us): op_cost_rt from op_cpu_us,
  // the mean CPU time of an op of the workload's mix (`ops` of them),
  // lookup_cost_rt and update_cost_rt from the lookup and update calls the
  // workload gates. Also prints the round trip and the undivided times.
  void E2eCosts(const Samples& reference, double op_cpu_us, uint64_t ops,
                const Samples& lookup, const Samples& update);
  // One note line per call: sample count, mean, p50, p90 and p99 in microseconds.
  void NoteCalls(const std::string& tag, const CallSamples& calls);
};

// --- op model ---

enum class OpClass { kLookup, kQuery, kScan, kUpdate, kOther };
inline constexpr size_t kOpClasses = 5;
const char* ClassName(OpClass c);

enum class OpShape {
  kSingle,     // one request
  kFirstPage,  // OpenCursor + one FetchPage + CloseCursor
  kDrain,      // OpenCursor + FetchPage until done + CloseCursor, restarted when stale
};

struct Op {
  OpClass cls = OpClass::kOther;
  OpShape shape = OpShape::kSingle;
  hac::ServerRequest req;  // kFirstPage/kDrain: req.path = directory, req.aux = query
  int bucket = -1;         // Search selectivity bucket (0 few, 1 medium, 2 many)
  // Expected result digest (see ResultDigest); 0 leaves the result unchecked.
  uint64_t expect = 0;
  // Descriptor ops replayed from a recording: req.fd is a recorded descriptor,
  // mapped onto the live one by RunOp.
  bool maps_fd = false;
  bool expect_ok = true;  // recorded outcome (replays of probing calls may fail)
};

inline hac::ServerRequest MakeRequest(hac::ServerOp op, const std::string& path,
                                      const std::string& aux = "") {
  hac::ServerRequest r;
  r.op = op;
  r.path = path;
  r.aux = aux;
  return r;
}

// One request/response exchange: an in-process or TCP client, or the facade.
class Target {
 public:
  virtual ~Target() = default;
  virtual hac::ServerResponse Call(const hac::ServerRequest& req) = 0;
};

// The protected transport hook of each shipped client, made callable so the
// benchmark can issue ServerRequests and see the ServerResponses it times.
class InProcessTarget final : public hac::ServiceClient, public Target {
 public:
  explicit InProcessTarget(hac::HacService& service) : hac::ServiceClient(service) {}
  hac::ServerResponse Call(const hac::ServerRequest& req) override { return Transport(req); }
};
class TcpTarget final : public hac::RemoteServiceClient, public Target {
 public:
  hac::ServerResponse Call(const hac::ServerRequest& req) override { return Transport(req); }
};

// Executes requests directly on a HacFileSystem, with the service's semantics for
// the cursor ops (a cursor is its open arguments plus a page token).
class FacadeTarget final : public Target {
 public:
  explicit FacadeTarget(hac::HacFileSystem& fs) : fs_(fs) {}
  hac::ServerResponse Call(const hac::ServerRequest& req) override;

 private:
  struct Cursor {
    std::string path;
    std::string query;
    hac::PageToken token;
    bool started = false;
  };
  hac::HacFileSystem& fs_;
  std::map<hac::Fd, Cursor> cursors_;
  hac::Fd next_cursor_ = 1;
};

// Called for every request of an op with its response and its own start/end.
using StepHook = std::function<void(const hac::ServerRequest&, const hac::ServerResponse&,
                                    Clock::time_point, Clock::time_point)>;

struct OpOutcome {
  bool ok = false;
  bool refused = false;  // kOverloaded
  hac::ErrorCode code = hac::ErrorCode::kOk;
  uint64_t digest = 0;
  size_t pages = 0;
  size_t restarts = 0;  // kStaleCursor restarts of a drain
};

// The samples of every call together.
Samples AllOf(const CallSamples& calls);

// The samples of one call, or an empty set if the run made none.
const Samples& CallOf(const CallSamples& calls, const std::string& name);

// The call an op makes, for per-call figures: its class and the request's op
// name ("lookup.Stat"), or cursor_first_page / cursor_drain for the paged shapes.
std::string CallName(const Op& op);

// Runs one op against `t`. `fds` maps recorded descriptors for replayed ops.
OpOutcome RunOp(Target& t, const Op& op, std::map<hac::Fd, hac::Fd>* fds = nullptr,
                const StepHook& hook = nullptr);

// Digest of what a response shows a client: entry names and types, paths, link
// targets, stat size/type, read text.
uint64_t ResultDigest(const hac::ServerResponse& resp);
uint64_t EntriesDigest(const std::vector<hac::DirEntry>& entries);
uint64_t PathsDigest(const std::vector<std::string>& paths);

// A fixed job that runs no HAC code: pipe round trips between the calling
// thread and a helper thread, the system calls and context switches a
// request's hand-offs also make, timed by the CPU clocks of those two threads
// only. Neighbours' load on a shared host changes how fast a core runs, which
// CPU time does not leave out; the gated costs are counted in this job's round
// trips, measured beside them, so that a slower host slows both.
class HostReference {
 public:
  static constexpr int kRoundTrips = 200;
  static constexpr auto kEvery = std::chrono::milliseconds(50);
  HostReference();
  ~HostReference();
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;
  // CPU time (us) of one round trip, averaged over one job of kRoundTrips.
  double RunUs();
  // Runs a job and adds its figure to `into` if kEvery has passed since the last.
  void RunDue(Samples& into);

 private:
  int to_helper_[2] = {-1, -1};
  int from_helper_[2] = {-1, -1};
  std::thread helper_;
  clockid_t helper_clock_ = CLOCK_THREAD_CPUTIME_ID;
  Clock::time_point next_{};
};

// Closed-loop callers: thread t draws ops from next(t) and runs each on
// target(t), pausing with pause(t) after it, for a one-second warm-up and then
// the measured interval. Latencies are recorded per class and per call from the
// measured interval only, pooled over the whole interval; every op's result is
// checked against op.expect either way. at_start runs on the calling thread when
// the measured interval begins.
struct LoopResult {
  Samples lat[kOpClasses];
  CallSamples calls;
  // When LoopSpec::probe is set: the process CPU time of each call (us), and
  // the CPU time of one HostReference round trip (us) from jobs run between
  // calls.
  CallSamples cpu_calls;
  Samples reference;
  uint64_t attempted = 0, failed = 0;
  uint64_t scans = 0, pages = 0, restarts = 0, updates = 0;
  double busy_s = 0;  // summed over threads: time spent inside RunOp
  double cpu_s = 0;   // process CPU time over the measured interval
  std::vector<std::string> failures;
  // Completed ops per second of time a caller spent waiting for one: pauses
  // between ops do not count, so the rate follows the program's per-op cost.
  double BusyRate(size_t threads) const;
  // Completed ops per second of CPU time the process used for them.
  double CpuRate() const;
};
struct LoopSpec {
  size_t threads = 1;
  double seconds = 10;
  std::function<Op(size_t)> next;
  std::function<Target&(size_t)> target;
  std::function<void(size_t)> pause;  // optional
  std::function<void()> at_start;     // optional
  std::string tag;                    // prefix of failure messages
  // Also time each op in process CPU time and run HostReference jobs between
  // ops. Only meaningful with one caller: then the process runs nothing but
  // that op, on whichever of its threads.
  bool probe = false;
};
LoopResult RunClosedLoop(const LoopSpec& spec);
// Adds the loop's counts and failures to the report.
void MergeLoop(const LoopResult& r, Report& report);

// --- traced run ---

struct Span {
  const char* name;
  uint64_t start_ns;  // since the run's epoch
  uint64_t end_ns;
  int64_t parent;  // index into the span list, -1 for a root
  uint64_t request;  // op index: spans of one op in every pass share it
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  int64_t Add(const char* name, Clock::time_point a, Clock::time_point b, int64_t parent,
              uint64_t request);
  void SetParent(int64_t span, int64_t parent) { spans_[static_cast<size_t>(span)].parent = parent; }
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Per-op durations (us) of the spans named `name`, indexed by request id; ops
// without such a span read 0. Child spans of one request are summed.
std::vector<double> PerRequestUs(const SpanLog& log, const char* name, size_t ops);

// Durations (us) of every span named `name`.
Samples SpanDurationsUs(const SpanLog& log, const char* name);

// The traced run: one seeded op stream replayed single-client over TCP (twice:
// spans off, then on), through an in-process ServiceClient, and on the facade
// directly with index and VFS re-issues — each pass on a freshly built,
// identical instance. Emits the span-derived per-layer metrics.
struct TracePlan {
  std::function<std::unique_ptr<hac::HacFileSystem>()> build;
  std::vector<Op> ops;
  // Attach a DurableStore (a fresh data dir per pass) to the service passes and
  // time DurableStore::CommitFrom after each write in the facade pass.
  bool durable = false;
};
void RunTracedPasses(const RunOptions& opts, const TracePlan& plan, Report& report);

// Counter deltas over an untraced run's measured interval. The global registry
// is reset when the interval starts, so `reg` holds the interval's values.
struct LoadWindow {
  // Facade counter deltas (StatsSnapshot) over the interval.
  uint64_t query_evaluations = 0, delta_evaluations = 0, scope_propagations = 0,
           short_circuits = 0, attr_cache_hits = 0, attr_cache_misses = 0;
  void AddFacadeDelta(const hac::StatsSnapshot& before, const hac::StatsSnapshot& after);
  bool service = false;
  hac::ServiceStats svc_before, svc_after;
  uint64_t updates = 0;   // acknowledged mutations
  uint64_t scans = 0;     // completed drains
  uint64_t pages = 0;     // pages fetched by those drains
  uint64_t restarts = 0;  // kStaleCursor restarts of those drains
  hac::MetricsSnapshot reg;
};
void AddLoadLayers(const LoadWindow& w, Report& report);

// Opens a DurableStore in `dir` and seals `fs`'s current state into it (WAL
// commit of the set-up records, then a checkpoint), as a recovered hacd would
// hold it.
hac::Result<std::unique_ptr<hac::DurableStore>> AttachStore(hac::HacFileSystem& fs,
                                                            const std::string& dir);

// Prints the report: human-readable lines, then the JSON result as the last line.
// Returns the process exit code.
int PrintReport(const RunOptions& opts, const Report& report);

// --- process and registry helpers ---

double PeakRssMb();
// Registry counter/histogram readers over the global MetricsRegistry snapshot.
struct Registry {
  hac::MetricsSnapshot snap;
  static Registry Take() { return {hac::MetricsRegistry::Global().Snapshot()}; }
  uint64_t Counter(const char* name) const;
  const hac::HistogramSnapshot* Histogram(const char* name) const;
  double HistP(const char* name, double q) const;  // q in {0.5, 0.99}; 0 when empty
  double HistMean(const char* name) const;
  uint64_t HistCount(const char* name) const;
};

// Workload entry points (browse.cc, reclassify.cc, andrew.cc).
void RunBrowse(const RunOptions& opts, Report& report);
void RunReclassify(const RunOptions& opts, Report& report);
void RunAndrewWorkload(const RunOptions& opts, Report& report);

// A data directory for a DurableStore inside the output directory; removed and
// recreated empty.
std::string FreshDataDir(const RunOptions& opts, const std::string& tag);
// The filesystem type name of `path` (statfs), for the host stamp.
std::string FilesystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
