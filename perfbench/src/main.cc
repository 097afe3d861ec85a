// hac_perfbench: the repository benchmark. Run it through perfbench/run.py, which
// builds it first:
//
//   python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
//
// It builds seeded inputs, runs one workload against HAC's public API, checks
// the outputs, and prints every metric by name and unit; the last line is a JSON
// object {correct, attempted, failed, metrics}. --trace 1 adds the traced run
// and reports the per-layer metrics instead. The exit code is nonzero when an
// output check fails. perfbench/METRICS.md documents workloads and metrics.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "perfbench/src/bench.h"
#include "src/support/metrics.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Total and steal jiffies of all CPUs from /proc/stat (zeros if unreadable).
std::pair<unsigned long long, unsigned long long> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  unsigned long long v[8] = {};
  if (f != nullptr) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  unsigned long long total = 0;
  for (unsigned long long x : v) total += x;
  return {total, v[7]};
}

// Confines the process (and every thread it starts later) to one CPU, the
// highest it may use. Threads that hand each request to one another across
// CPUs spent about twice the CPU time on it, waking threads on other CPUs, and
// that cost moved by a third between runs of one seed. Returns the CPU, or -1
// if the affinity could not be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

// Keeps the pinned CPU from going idle for as long as it lives: a thread at
// SCHED_IDLE priority, which runs only when no other thread of the process is
// runnable. When a guest CPU idles, the hypervisor deschedules it and may run
// another guest on the core; the thread woken next then starts on cold caches.
// Without it a browse StatPath took about a third more CPU time (median of
// runs 34 against 26 us). The spinner's own CPU time is idle time:
// ProcessCpuSeconds leaves it out.
class KeepAwake {
 public:
  KeepAwake()
      : thread_([this] {
          sched_param param{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
          while (!stop_.load(std::memory_order_relaxed)) {
          }
        }) {
    clockid_t clock;
    if (pthread_getcpuclockid(thread_.native_handle(), &clock) == 0) {
      perfbench::SetIdleSpinner(clock);
    }
  }
  ~KeepAwake() {
    perfbench::ClearIdleSpinner();
    stop_ = true;
    thread_.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: hac_perfbench --workload {browse,reclassify,andrew} --seed N "
               "--seconds S --trace {0,1} --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out-dir") {
      opts.out_dir = val;
    } else {
      return Usage();
    }
  }
  if (opts.workload.empty() || opts.out_dir.empty() || opts.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("stamp: nproc=%u build_type=%s HAC_METRICS=%s sanitizer=%s data_dir_fs=%s\n",
              std::thread::hardware_concurrency(), build_type.c_str(),
              hac::kMetricsCompiledIn ? "ON" : "OFF", kSanitized ? "ON" : "OFF",
              perfbench::FilesystemType(opts.out_dir).c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  if (!kOptimized || kSanitized || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr, "perfbench: refusing to report from an unoptimised or sanitizer "
                         "build (build_type=%s sanitizer=%s)\n",
                 build_type.c_str(), kSanitized ? "ON" : "OFF");
    return 2;
  }
  if (!hac::kMetricsCompiledIn && opts.trace) {
    std::fprintf(stderr, "perfbench: the traced run needs HAC_METRICS=ON\n");
    return 2;
  }

  // One malloc arena. With every thread on one CPU an arena per thread buys no
  // concurrency, and how many arenas a run happened to create moved its peak
  // memory by a quarter.
  mallopt(M_ARENA_MAX, 1);
  // andrew runs on one thread and hands no work to another, so pinning buys it
  // nothing; unpinned, its reference round trips cross CPUs (see HostReference).
  std::unique_ptr<KeepAwake> keep_awake;
  if (opts.workload != "andrew") {
    const int cpu = PinToOneCpu();
    if (cpu < 0) {
      std::fprintf(stderr, "perfbench: could not pin the process to one CPU\n");
      return 2;
    }
    std::printf("cpu: every thread pinned to CPU %d, kept from idling\n", cpu);
    keep_awake = std::make_unique<KeepAwake>();
  } else {
    std::printf("cpu: not pinned (one thread)\n");
  }
  const auto ticks0 = CpuTicks();
  perfbench::Report report;
  if (opts.workload == "browse") {
    perfbench::RunBrowse(opts, report);
  } else if (opts.workload == "reclassify") {
    perfbench::RunReclassify(opts, report);
  } else if (opts.workload == "andrew") {
    perfbench::RunAndrewWorkload(opts, report);
  } else {
    return Usage();
  }
  // CPU time the hypervisor gave to other guests while this guest wanted it: a
  // high figure marks a run measured on a contended host.
  const auto ticks1 = CpuTicks();
  const double total = static_cast<double>(ticks1.first - ticks0.first);
  std::printf("host: steal %.2f%% of CPU time during the run\n",
              total > 0 ? 100.0 * static_cast<double>(ticks1.second - ticks0.second) / total : 0.0);
  return perfbench::PrintReport(opts, report);
}
