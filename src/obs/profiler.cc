#include "obs/profiler.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace ucr::obs {

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "cache_probe", "extract", "propagate", "compose", "resolve"};

constexpr const char* kPhaseMetricNames[kPhaseCount] = {
    "ucr_phase_cache_probe_ns", "ucr_phase_extract_ns",
    "ucr_phase_propagate_ns",   "ucr_phase_compose_ns",
    "ucr_phase_resolve_ns"};

constexpr const char* kPhaseHelp[kPhaseCount] = {
    "Per-query time in cache/epoch-table probes (ns, sampled)",
    "Per-query time in ancestor sub-graph extraction (ns, sampled)",
    "Per-query time in label propagation (ns, sampled)",
    "Per-query time in indexed sink-bag composition (ns, sampled)",
    "Per-query time in Fig. 4 resolution (ns, sampled)"};

}  // namespace

const char* PhaseName(Phase phase) {
  return kPhaseNames[static_cast<size_t>(phase)];
}

const char* PhaseMetricName(Phase phase) {
  return kPhaseMetricNames[static_cast<size_t>(phase)];
}

namespace internal {

namespace {

/// The per-phase histogram handles, interned once (leaked, like every
/// registry handle holder).
struct PhaseHistograms {
  Histogram* h[kPhaseCount];
  PhaseHistograms() {
    for (size_t i = 0; i < kPhaseCount; ++i) {
      h[i] = &Registry::Global().GetHistogram(kPhaseMetricNames[i],
                                              kPhaseHelp[i]);
    }
  }
};

PhaseHistograms& GetPhaseHistograms() {
  static PhaseHistograms* histograms = new PhaseHistograms();
  return *histograms;
}

}  // namespace

void FlushPhaseTls(PhaseTls& tls) {
  tls.active = false;
  PhaseHistograms& histograms = GetPhaseHistograms();
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (tls.ns[i] != 0) {
      histograms.h[i]->Observe(tls.ns[i]);
      tls.ns[i] = 0;
    }
  }
}

}  // namespace internal

#if UCR_METRICS_ENABLED && (defined(__x86_64__) || defined(__i386__))
uint64_t CycleClock::ToNs(uint64_t ticks) {
  // One-shot calibration of the invariant-TSC rate against the
  // monotonic clock. ~100 us once per process, outside any query (see
  // g_cycle_calibration below).
  static const double ns_per_tick = [] {
    const uint64_t t0 = __rdtsc();
    const uint64_t n0 = NowNs();
    while (NowNs() - n0 < 100'000) {
    }
    const uint64_t n1 = NowNs();
    const uint64_t t1 = __rdtsc();
    return t1 > t0 ? static_cast<double>(n1 - n0) /
                         static_cast<double>(t1 - t0)
                   : 1.0;
  }();
  return static_cast<uint64_t>(static_cast<double>(ticks) * ns_per_tick);
}

namespace {
/// Eager calibration at process start, so the first sampled query
/// never pays the calibration spin inside a timed phase.
[[maybe_unused]] const bool g_cycle_calibration = (CycleClock::ToNs(0), true);
}  // namespace
#else
uint64_t CycleClock::ToNs(uint64_t ticks) { return ticks; }
#endif

WallProfiler& WallProfiler::Global() {
  static WallProfiler* profiler = new WallProfiler();
  return *profiler;
}

}  // namespace ucr::obs

// ---------------------------------------------------------------------------
// Wall-clock sampling profiler. Linux-only; everything below is
// compiled out with the instrumentation (or stubbed off-Linux).
// ---------------------------------------------------------------------------

#if UCR_METRICS_ENABLED

#if defined(__linux__)

#include <cxxabi.h>
#include <dirent.h>
#include <dlfcn.h>
#include <errno.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ucr::obs {

namespace {

constexpr uint32_t kMaxFrames = 32;
constexpr uint32_t kRingCapacity = 64;      // Samples buffered per thread.
constexpr size_t kMaxProfiledThreads = 128;  // Static ring pool size.

/// One captured backtrace, leaf-first.
struct Sample {
  uint32_t depth;
  uintptr_t pc[kMaxFrames];
};

/// Per-thread SPSC ring: the signal handler (running on the owning
/// thread) is the only writer, the ticker thread the only reader.
struct alignas(64) ThreadRing {
  std::atomic<uint64_t> owner_tid{0};  // 0 = free slot.
  std::atomic<uint32_t> head{0};       // Writer position (handler).
  std::atomic<uint32_t> tail{0};       // Reader position (ticker).
  Sample samples[kRingCapacity];
};

/// Static pool: claimed by CAS from the handler (no allocation in
/// signal context), reclaimed by the ticker when the owning tid
/// disappears from /proc/self/task. Deliberately static-lifetime so a
/// straggler signal after Stop can never touch freed memory.
ThreadRing g_rings[kMaxProfiledThreads];

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_samples_total{0};
std::atomic<uint64_t> g_dropped_total{0};
std::atomic<uint64_t> g_signals_sent{0};
std::atomic<uint32_t> g_threads_seen{0};

/// This thread's claimed ring slot (-1 = none). Plain POD TLS: safe to
/// touch from the signal handler (initial-exec TLS, no lazy init).
thread_local int t_ring_slot = -1;

// Lifecycle state, guarded by g_lifecycle_mu (never touched from the
// handler).
std::mutex g_lifecycle_mu;
bool g_running = false;
std::atomic<bool> g_ticker_stop{false};
std::thread g_ticker;
uint64_t g_started_ns = 0;
uint64_t g_stopped_ns = 0;

// Folded aggregation: raw-pc stack -> count. Keyed by the byte image
// of the leaf-first pc array. Guarded by g_fold_mu; leaked.
std::mutex g_fold_mu;
std::unordered_map<std::string, uint64_t>* g_folded = nullptr;

uint64_t OwnTid() { return static_cast<uint64_t>(::syscall(SYS_gettid)); }

/// Frame-pointer backtrace from an interrupted context. Runs in signal
/// context: no allocation, no locks, no library calls. The walk is
/// bounds-checked (alignment, strictly rising, capped distance from
/// the interrupted stack pointer) because frames below code compiled
/// without frame pointers (libc leaves) can hold garbage in the FP
/// register. Sanitizers are suppressed: the chain legitimately reads
/// stack words that are not this function's own locals.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
__attribute__((no_sanitize_address, no_sanitize_thread))
#endif
__attribute__((no_sanitize_undefined)) uint32_t
CaptureBacktrace(void* ucontext_raw, uintptr_t* out, uint32_t max_frames) {
  uintptr_t pc = 0;
  uintptr_t fp = 0;
  uintptr_t sp = 0;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext_raw);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)ucontext_raw;
  pc = reinterpret_cast<uintptr_t>(__builtin_return_address(0));
  fp = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  sp = fp;
#endif
  uint32_t n = 0;
  if (pc != 0 && n < max_frames) out[n++] = pc;

  constexpr uintptr_t kAlignMask = sizeof(uintptr_t) - 1;
  constexpr uintptr_t kMaxFrameGap = uintptr_t{1} << 20;   // 1 MiB.
  constexpr uintptr_t kMaxStackSpan = uintptr_t{4} << 20;  // 4 MiB.
  while (n < max_frames && fp != 0 && (fp & kAlignMask) == 0 && fp >= sp &&
         fp - sp < kMaxStackSpan) {
    const uintptr_t next_fp = *reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret =
        *reinterpret_cast<const uintptr_t*>(fp + sizeof(uintptr_t));
    if (ret < 4096) break;  // Not a plausible code address.
    out[n++] = ret;
    if (next_fp <= fp || next_fp - fp > kMaxFrameGap) break;
    fp = next_fp;
  }
  return n;
}

/// SIGPROF handler. Async-signal-safe by construction: raw syscalls,
/// lock-free atomics, the static ring pool, plain POD TLS — no
/// allocation, no locks, no errno leaks.
void ProfSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  if (!g_armed.load(std::memory_order_acquire)) return;
  const int saved_errno = errno;
  int slot = t_ring_slot;
  if (slot < 0) {
    const uint64_t tid = OwnTid();
    for (size_t i = 0; i < kMaxProfiledThreads; ++i) {
      uint64_t expected = 0;
      if (g_rings[i].owner_tid.compare_exchange_strong(
              expected, tid, std::memory_order_acq_rel,
              std::memory_order_acquire) ||
          expected == tid) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) {
      g_dropped_total.fetch_add(1, std::memory_order_relaxed);
      errno = saved_errno;
      return;
    }
    t_ring_slot = slot;
    g_threads_seen.fetch_add(1, std::memory_order_relaxed);
  }
  ThreadRing& ring = g_rings[slot];
  const uint32_t head = ring.head.load(std::memory_order_relaxed);
  const uint32_t tail = ring.tail.load(std::memory_order_acquire);
  if (head - tail >= kRingCapacity) {
    g_dropped_total.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& sample = ring.samples[head % kRingCapacity];
  sample.depth = CaptureBacktrace(ucontext, sample.pc, kMaxFrames);
  if (sample.depth == 0) {
    sample.pc[0] = 0;
    sample.depth = 1;
  }
  ring.head.store(head + 1, std::memory_order_release);
  g_samples_total.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

/// Live thread ids from /proc/self/task. Runs on the ticker thread
/// (normal context); readdir's allocation is off-budget.
void ListTids(std::vector<uint64_t>& out) {
  out.clear();
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    out.push_back(::strtoull(entry->d_name, nullptr, 10));
  }
  ::closedir(dir);
}

/// Moves every ring's pending samples into the folded aggregation.
void DrainRings() {
  ScopedAllocExclusion off_budget;
  std::lock_guard<std::mutex> lock(g_fold_mu);
  if (g_folded == nullptr) return;
  for (ThreadRing& ring : g_rings) {
    if (ring.owner_tid.load(std::memory_order_acquire) == 0) continue;
    uint32_t tail = ring.tail.load(std::memory_order_relaxed);
    const uint32_t head = ring.head.load(std::memory_order_acquire);
    while (tail != head) {
      const Sample& sample = ring.samples[tail % kRingCapacity];
      const std::string key(reinterpret_cast<const char*>(sample.pc),
                            sample.depth * sizeof(uintptr_t));
      ++(*g_folded)[key];
      ++tail;
    }
    ring.tail.store(tail, std::memory_order_release);
  }
}

/// Reclaims ring slots whose owning thread has exited (tid no longer
/// listed). Their buffered samples were drained by the caller.
void ReclaimDeadSlots(const std::vector<uint64_t>& live_tids) {
  for (ThreadRing& ring : g_rings) {
    const uint64_t owner = ring.owner_tid.load(std::memory_order_acquire);
    if (owner == 0) continue;
    if (std::find(live_tids.begin(), live_tids.end(), owner) !=
        live_tids.end()) {
      continue;
    }
    // Owner is dead: no writer exists, so resetting is race-free.
    ring.tail.store(ring.head.load(std::memory_order_acquire),
                    std::memory_order_release);
    ring.owner_tid.store(0, std::memory_order_release);
  }
}

/// One sampling pass: signal every live thread except the caller.
void SignalAllThreads(const std::vector<uint64_t>& tids, uint64_t self_tid) {
  const pid_t pid = ::getpid();
  for (const uint64_t tid : tids) {
    if (tid == self_tid) continue;
    if (::syscall(SYS_tgkill, pid, static_cast<pid_t>(tid), SIGPROF) == 0) {
      g_signals_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void TickerLoop(uint32_t hz) {
  const uint64_t self_tid = OwnTid();
  const uint64_t interval_ns = 1'000'000'000ull / (hz == 0 ? 1 : hz);
  struct timespec interval;
  interval.tv_sec = static_cast<time_t>(interval_ns / 1'000'000'000ull);
  interval.tv_nsec = static_cast<long>(interval_ns % 1'000'000'000ull);

  std::vector<uint64_t> tids;
  uint64_t tick = 0;
  // Refresh the thread list roughly every 100 ms (every tick at slow
  // rates) so new threads join the profile and dead slots recycle.
  const uint64_t refresh_every =
      std::max<uint64_t>(1, 100'000'000ull / interval_ns);
  {
    ScopedAllocExclusion off_budget;
    ListTids(tids);
  }
  while (!g_ticker_stop.load(std::memory_order_acquire)) {
    struct timespec remaining = interval;
    while (::nanosleep(&remaining, &remaining) != 0 && errno == EINTR) {
      if (g_ticker_stop.load(std::memory_order_acquire)) break;
    }
    if (g_ticker_stop.load(std::memory_order_acquire)) break;
    if (tick++ % refresh_every == 0) {
      ScopedAllocExclusion off_budget;
      ListTids(tids);
      DrainRings();
      ReclaimDeadSlots(tids);
    }
    SignalAllThreads(tids, self_tid);
    DrainRings();
  }
}

// -- Symbolization (cold; RenderFolded only). -------------------------------

/// One /proc/self/maps segment (executable only).
struct MapSegment {
  uintptr_t start = 0;
  uintptr_t end = 0;
  uintptr_t offset = 0;
  std::string path;
};

std::vector<MapSegment> ReadExecutableMaps() {
  std::vector<MapSegment> segments;
  FILE* f = ::fopen("/proc/self/maps", "re");
  if (f == nullptr) return segments;
  char line[1024];
  while (::fgets(line, sizeof(line), f) != nullptr) {
    uintptr_t start = 0;
    uintptr_t end = 0;
    uintptr_t offset = 0;
    char perms[8] = {0};
    int path_pos = -1;
    if (::sscanf(line, "%zx-%zx %7s %zx %*s %*s %n", &start, &end, perms,
                 &offset, &path_pos) < 4) {
      continue;
    }
    if (perms[2] != 'x') continue;
    MapSegment seg;
    seg.start = start;
    seg.end = end;
    seg.offset = offset;
    if (path_pos > 0) {
      std::string path(line + path_pos);
      while (!path.empty() && (path.back() == '\n' || path.back() == ' ')) {
        path.pop_back();
      }
      seg.path = std::move(path);
    }
    segments.push_back(std::move(seg));
  }
  ::fclose(f);
  return segments;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Best-effort name of one pc: dladdr symbol (demangled), else
/// "module+0xoff" from /proc/self/maps, else the raw address.
std::string SymbolizePc(uintptr_t pc, const std::vector<MapSegment>& maps) {
  Dl_info info;
  if (::dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string out(demangled);
      ::free(demangled);
      // Fold template/argument noise: flamegraphs want frame names,
      // not full signatures.
      const size_t paren = out.find('(');
      if (paren != std::string::npos) out.resize(paren);
      return out;
    }
    if (demangled != nullptr) ::free(demangled);
    return info.dli_sname;
  }
  for (const MapSegment& seg : maps) {
    if (pc >= seg.start && pc < seg.end) {
      char buf[64];
      ::snprintf(buf, sizeof(buf), "+0x%zx",
                 static_cast<size_t>(pc - seg.start + seg.offset));
      return (seg.path.empty() ? std::string("[anon]")
                               : Basename(seg.path)) +
             buf;
    }
  }
  char buf[32];
  ::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
  return buf;
}

}  // namespace

bool WallProfiler::Start(const Options& options) {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (g_running) return false;

  {
    ScopedAllocExclusion off_budget;
    std::lock_guard<std::mutex> fold_lock(g_fold_mu);
    if (g_folded == nullptr) {
      g_folded = new std::unordered_map<std::string, uint64_t>();
    }
    g_folded->clear();
  }
  // Discard samples buffered by a previous run.
  for (ThreadRing& ring : g_rings) {
    ring.tail.store(ring.head.load(std::memory_order_acquire),
                    std::memory_order_release);
  }
  g_samples_total.store(0, std::memory_order_relaxed);
  g_dropped_total.store(0, std::memory_order_relaxed);
  g_signals_sent.store(0, std::memory_order_relaxed);

  struct sigaction action;
  ::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &ProfSignalHandler;
  // SA_RESTART keeps restartable syscalls transparent; the EINTR audit
  // (DESIGN.md §14) covers the calls the kernel refuses to restart
  // (e.g. recv with a receive timeout).
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  ::sigemptyset(&action.sa_mask);
  if (::sigaction(SIGPROF, &action, nullptr) != 0) return false;

  g_started_ns = NowNs();
  g_stopped_ns = 0;
  g_ticker_stop.store(false, std::memory_order_release);
  g_armed.store(true, std::memory_order_release);
  {
    ScopedAllocExclusion off_budget;
    g_ticker = std::thread(TickerLoop, options.hz);
  }
  g_running = true;
  return true;
}

void WallProfiler::Stop() {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (!g_running) return;
  // Disarm first: in-flight SIGPROFs become no-ops, then no new ones
  // are sent once the ticker joins.
  g_armed.store(false, std::memory_order_release);
  g_ticker_stop.store(true, std::memory_order_release);
  if (g_ticker.joinable()) g_ticker.join();
  DrainRings();  // Collect samples captured before the disarm.
  g_stopped_ns = NowNs();
  g_running = false;
}

bool WallProfiler::running() const {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  return g_running;
}

std::string WallProfiler::RenderFolded() {
  ScopedAllocExclusion off_budget;
  DrainRings();

  // Copy the aggregation, then symbolize outside the fold lock.
  std::vector<std::pair<std::string, uint64_t>> stacks;
  {
    std::lock_guard<std::mutex> lock(g_fold_mu);
    if (g_folded != nullptr) {
      stacks.assign(g_folded->begin(), g_folded->end());
    }
  }

  const std::vector<MapSegment> maps = ReadExecutableMaps();
  std::unordered_map<uintptr_t, std::string> symbol_cache;
  const auto name_of = [&](uintptr_t pc) -> const std::string& {
    auto it = symbol_cache.find(pc);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(pc, SymbolizePc(pc, maps)).first;
    }
    return it->second;
  };

  // Identical symbolized stacks merge (distinct pcs inside one
  // function fold to one frame name); sorted output is deterministic.
  std::map<std::string, uint64_t> folded;
  for (const auto& [key, count] : stacks) {
    const auto* pcs = reinterpret_cast<const uintptr_t*>(key.data());
    const size_t depth = key.size() / sizeof(uintptr_t);
    std::string line;
    // Ring samples are leaf-first; folded format is root-first. Every
    // non-leaf frame is a return address: step back one byte so the
    // symbol is the call site's function, not the instruction after.
    for (size_t i = depth; i-- > 0;) {
      const uintptr_t pc = pcs[i];
      const uintptr_t lookup = (i == 0 || pc == 0) ? pc : pc - 1;
      if (!line.empty()) line += ';';
      line += (pc == 0) ? "[unknown]" : name_of(lookup);
    }
    folded[line] += count;
  }

  std::string out;
  char buf[32];
  for (const auto& [line, count] : folded) {
    out += line;
    ::snprintf(buf, sizeof(buf), " %llu\n",
               static_cast<unsigned long long>(count));
    out += buf;
  }
  return out;
}

WallProfiler::Stats WallProfiler::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(g_lifecycle_mu);
    stats.running = g_running;
    const uint64_t end = g_running ? NowNs() : g_stopped_ns;
    if (g_started_ns != 0 && end > g_started_ns) {
      stats.duration_s =
          static_cast<double>(end - g_started_ns) / 1'000'000'000.0;
    }
  }
  stats.samples_total = g_samples_total.load(std::memory_order_relaxed);
  stats.dropped_total = g_dropped_total.load(std::memory_order_relaxed);
  stats.signals_sent = g_signals_sent.load(std::memory_order_relaxed);
  stats.threads_seen = g_threads_seen.load(std::memory_order_relaxed);
  if (stats.duration_s > 0) {
    stats.samples_per_sec =
        static_cast<double>(stats.samples_total) / stats.duration_s;
  }
  return stats;
}

void WallProfiler::TickOnceForTesting() {
  std::vector<uint64_t> tids;
  {
    ScopedAllocExclusion off_budget;
    ListTids(tids);
  }
  SignalAllThreads(tids, OwnTid());
  // Give the signals a moment to land before draining.
  struct timespec pause {0, 2'000'000};
  while (::nanosleep(&pause, &pause) != 0 && errno == EINTR) {
  }
  DrainRings();
}

}  // namespace ucr::obs

#else  // !defined(__linux__)

namespace ucr::obs {

bool WallProfiler::Start(const Options&) { return false; }
void WallProfiler::Stop() {}
bool WallProfiler::running() const { return false; }
std::string WallProfiler::RenderFolded() { return std::string(); }
WallProfiler::Stats WallProfiler::GetStats() const { return Stats{}; }
void WallProfiler::TickOnceForTesting() {}

}  // namespace ucr::obs

#endif  // defined(__linux__)

#endif  // UCR_METRICS_ENABLED
