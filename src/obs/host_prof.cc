#include "obs/host_prof.hh"

#include <chrono>
#include <cstdlib>
#include <new>

#include "obs/json_writer.hh"
#include "sim/env.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace grp
{
namespace obs
{

const char *
toString(HostPhase phase)
{
    switch (phase) {
      case HostPhase::Run:           return "run";
      case HostPhase::Setup:         return "setup";
      case HostPhase::SimLoop:       return "simLoop";
      case HostPhase::Events:        return "events";
      case HostPhase::CpuTick:       return "cpuTick";
      case HostPhase::Interp:        return "interp";
      case HostPhase::MemTick:       return "memTick";
      case HostPhase::MemAccess:     return "memAccess";
      case HostPhase::L2Access:      return "l2Access";
      case HostPhase::Mshr:          return "mshr";
      case HostPhase::EngineNotify:  return "engineNotify";
      case HostPhase::DramServe:     return "dramServe";
      case HostPhase::PrefetchIssue: return "prefetchIssue";
      case HostPhase::EngineDequeue: return "engineDequeue";
      case HostPhase::TraceEmit:     return "traceEmit";
      case HostPhase::SiteProfile:   return "siteProfile";
      case HostPhase::Adaptive:      return "adaptive";
      case HostPhase::Timeseries:    return "timeseries";
      case HostPhase::Finish:        return "finish";
      case HostPhase::StatsExport:   return "statsExport";
      case HostPhase::NumPhases:     break;
    }
    return "?";
}

int
hostProfLevelOf(HostPhase phase)
{
    switch (phase) {
      case HostPhase::Run:
      case HostPhase::Setup:
      case HostPhase::SimLoop:
      case HostPhase::Adaptive:
      case HostPhase::Timeseries:
      case HostPhase::Finish:
      case HostPhase::StatsExport:
        return 1;
      case HostPhase::Events:
      case HostPhase::CpuTick:
      case HostPhase::Interp:
      case HostPhase::MemTick:
      case HostPhase::MemAccess:
      case HostPhase::L2Access:
      case HostPhase::Mshr:
      case HostPhase::EngineNotify:
      case HostPhase::DramServe:
      case HostPhase::PrefetchIssue:
      case HostPhase::EngineDequeue:
      case HostPhase::TraceEmit:
      case HostPhase::SiteProfile:
        return 2;
      case HostPhase::NumPhases:
        break;
    }
    return 2;
}

HostPhase
hostPhaseParent(HostPhase phase)
{
    switch (phase) {
      case HostPhase::Run:
        return HostPhase::Run;
      case HostPhase::Setup:
      case HostPhase::SimLoop:
      case HostPhase::Finish:
      case HostPhase::StatsExport:
        return HostPhase::Run;
      case HostPhase::Events:
      case HostPhase::CpuTick:
      case HostPhase::MemTick:
      case HostPhase::Adaptive:
      case HostPhase::Timeseries:
        return HostPhase::SimLoop;
      case HostPhase::Interp:
      case HostPhase::MemAccess:
        return HostPhase::CpuTick;
      case HostPhase::L2Access:
        return HostPhase::MemAccess;
      case HostPhase::Mshr:
      case HostPhase::EngineNotify:
        return HostPhase::L2Access;
      case HostPhase::DramServe:
      case HostPhase::PrefetchIssue:
        return HostPhase::MemTick;
      case HostPhase::EngineDequeue:
        return HostPhase::PrefetchIssue;
      case HostPhase::TraceEmit:
      case HostPhase::SiteProfile:
        return HostPhase::SimLoop;
      case HostPhase::NumPhases:
        break;
    }
    return HostPhase::Run;
}

// ---------------------------------------------------------------------
// Tick source + calibration.
//
// Scopes read the CPU's raw cycle counter (two register reads per
// scope); nanoseconds only matter at snapshot time, when the tick
// delta is converted through a process-wide ratio calibrated once
// against steady_clock (the first conversion widens a too-small
// window by spinning briefly — sub-millisecond, once). The ratio is
// then fixed for the process lifetime: every conversion must use the
// SAME ratio, or equal tick counts (a leaf phase's total vs. self)
// convert to different nano values and snapshot deltas drift.

namespace
{

#if defined(__x86_64__) || defined(__i386__)
constexpr bool kTicksAreNanos = false;

inline uint64_t
rawTicks()
{
    return __builtin_ia32_rdtsc();
}
#elif defined(__aarch64__)
constexpr bool kTicksAreNanos = false;

inline uint64_t
rawTicks()
{
    uint64_t value;
    asm volatile("mrs %0, cntvct_el0" : "=r"(value));
    return value;
}
#else
constexpr bool kTicksAreNanos = true;

inline uint64_t
rawTicks()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}
#endif

struct CalibBase
{
    uint64_t ticks;
    std::chrono::steady_clock::time_point when;
};

const CalibBase &
calibBase()
{
    static const CalibBase base{rawTicks(),
                                std::chrono::steady_clock::now()};
    return base;
}

double
nanosPerTick()
{
    if (kTicksAreNanos)
        return 1.0;
    static const double ratio = [] {
        const CalibBase &base = calibBase();
        // Require a 1 ms window before trusting the ratio; processes
        // snapshotting earlier (unit tests) pay one short spin.
        for (;;) {
            const auto now = std::chrono::steady_clock::now();
            const auto window =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - base.when)
                    .count();
            const uint64_t tick_window = rawTicks() - base.ticks;
            if (window >= 1'000'000 && tick_window > 0) {
                return static_cast<double>(window) /
                       static_cast<double>(tick_window);
            }
        }
    }();
    return ratio;
}

uint64_t
saturatingSub(uint64_t a, uint64_t b)
{
    return a > b ? a - b : 0;
}

} // namespace

uint64_t
hostTicksNow()
{
    return rawTicks();
}

uint64_t
hostTicksToNanos(uint64_t ticks)
{
    if (kTicksAreNanos)
        return ticks;
    return static_cast<uint64_t>(static_cast<double>(ticks) *
                                 nanosPerTick());
}

// ---------------------------------------------------------------------
// Allocation accounting.
//
// Process-wide operator new/delete replacements live in this
// translation unit (which every profiler consumer already links), so
// a binary that profiles also counts. The counters are thread-local
// zero-initialised PODs — safe to touch from the very first
// allocation, before any constructor runs — and the hooks forward
// straight to malloc/free, which keeps them transparent to ASan/TSan
// (the sanitizers intercept at the malloc layer).

namespace
{

thread_local uint64_t t_allocCount = 0;
thread_local uint64_t t_allocBytes = 0;
thread_local uint64_t t_freeCount = 0;

inline void *
countedAlloc(std::size_t size)
{
    ++t_allocCount;
    t_allocBytes += size;
    return std::malloc(size ? size : 1);
}

inline void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++t_allocCount;
    t_allocBytes += size;
    void *ptr = nullptr;
    if (align < sizeof(void *))
        align = sizeof(void *);
    if (posix_memalign(&ptr, align, size ? size : 1) != 0)
        return nullptr;
    return ptr;
}

inline void
countedFree(void *ptr)
{
    if (!ptr)
        return;
    ++t_freeCount;
    std::free(ptr);
}

} // namespace

HostAllocCounters
hostAllocCounters()
{
    return {t_allocCount, t_allocBytes, t_freeCount};
}

uint64_t
hostPeakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(usage.ru_maxrss) / 1024;
#else
    return static_cast<uint64_t>(usage.ru_maxrss);
#endif
#else
    return 0;
#endif
}

// ---------------------------------------------------------------------
// HostProfile.

uint64_t
HostProfile::selfSumNanos() const
{
    uint64_t sum = 0;
    for (const HostPhaseTotals &totals : phases)
        sum += totals.selfNanos;
    return sum;
}

HostProfile
HostProfile::delta(const HostProfile &since) const
{
    HostProfile out;
    for (size_t i = 0; i < kNumHostPhases; ++i) {
        out.phases[i].totalNanos = saturatingSub(
            phases[i].totalNanos, since.phases[i].totalNanos);
        out.phases[i].selfNanos = saturatingSub(
            phases[i].selfNanos, since.phases[i].selfNanos);
        out.phases[i].calls =
            saturatingSub(phases[i].calls, since.phases[i].calls);
    }
    out.allocCount = saturatingSub(allocCount, since.allocCount);
    out.allocBytes = saturatingSub(allocBytes, since.allocBytes);
    out.freeCount = saturatingSub(freeCount, since.freeCount);
    // Peak RSS is a process high-water mark, not a windowed rate.
    out.peakRssKb = peakRssKb;
    out.level = level;
    return out;
}

void
HostProfile::writeJson(std::ostream &os) const
{
    JsonWriter json(os);
    json.beginObject();
    json.kv("level", level);
    json.key("phases");
    json.beginObject();
    for (size_t i = 0; i < kNumHostPhases; ++i) {
        const HostPhaseTotals &totals = phases[i];
        if (!totals.calls)
            continue;
        const HostPhase phase = static_cast<HostPhase>(i);
        json.key(toString(phase));
        json.beginObject();
        json.kv("totalNanos", totals.totalNanos);
        json.kv("selfNanos", totals.selfNanos);
        json.kv("calls", totals.calls);
        json.kv("parent", toString(hostPhaseParent(phase)));
        json.endObject();
    }
    json.endObject();
    json.kv("selfSumNanos", selfSumNanos());
    json.kv("allocCount", allocCount);
    json.kv("allocBytes", allocBytes);
    json.kv("freeCount", freeCount);
    json.kv("peakRssKb", peakRssKb);
    json.endObject();
}

// ---------------------------------------------------------------------
// HostProfiler.

std::atomic<int> hostProfCeiling{0};

namespace
{

/** Seed the ceiling from the environment at process start: scope
 *  sites consult the ceiling before ever touching the thread-local
 *  profiler, so without this a thread's very first sites would skip
 *  even under GRP_HOST_PROF. */
const int hostProfCeilingSeed = [] {
    const int level = HostProfiler::envLevel();
    hostProfCeiling.store(level, std::memory_order_relaxed);
    return level;
}();

} // namespace

HostProfiler &
HostProfiler::instance()
{
    thread_local HostProfiler profiler;
    return profiler;
}

HostProfiler::HostProfiler()
{
    setLevel(envLevel());
}

int
HostProfiler::envLevel()
{
    static const int level = [] {
        const uint64_t parsed = envInt("GRP_HOST_PROF", 0);
        return parsed > 3 ? 3 : static_cast<int>(parsed);
    }();
    return level;
}

HostProfile
HostProfiler::snapshot() const
{
    // Copy the closed-scope accumulators, then fold in the
    // elapsed-so-far of every scope still open on this thread.
    // Walking innermost-out, each open scope's self contribution
    // excludes both its completed children (childTicks) and the
    // still-open child inside it, so the partition invariant (self
    // times sum to the root's total) holds mid-run too.
    std::array<PhaseAccum, kNumHostPhases> accum = accum_;
    const uint64_t now = hostTicksNow();
    uint64_t open_child = 0;
    for (const OpenScope *scope = current_; scope;
         scope = scope->parent) {
        const uint64_t elapsed = now - scope->startTicks;
        PhaseAccum &acc = accum[static_cast<size_t>(scope->phase)];
        acc.ticks += elapsed;
        acc.selfTicks +=
            saturatingSub(elapsed, scope->childTicks + open_child);
        ++acc.calls;
        open_child = elapsed;
    }

    HostProfile profile;
    for (size_t i = 0; i < kNumHostPhases; ++i) {
        profile.phases[i].totalNanos = hostTicksToNanos(accum[i].ticks);
        profile.phases[i].selfNanos =
            hostTicksToNanos(accum[i].selfTicks);
        profile.phases[i].calls = accum[i].calls;
    }
    const HostAllocCounters alloc = hostAllocCounters();
    profile.allocCount = alloc.allocCount;
    profile.allocBytes = alloc.allocBytes;
    profile.freeCount = alloc.freeCount;
    profile.peakRssKb = hostPeakRssKb();
    profile.level = level_;
    return profile;
}

void
HostProfiler::reset()
{
    accum_ = {};
}

} // namespace obs
} // namespace grp

// ---------------------------------------------------------------------
// Global allocation hooks (outside any namespace by requirement).

void *
operator new(std::size_t size)
{
    void *ptr = grp::obs::countedAlloc(size);
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new[](std::size_t size)
{
    void *ptr = grp::obs::countedAlloc(size);
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return grp::obs::countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return grp::obs::countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *ptr = grp::obs::countedAlignedAlloc(
        size, static_cast<std::size_t>(align));
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *ptr = grp::obs::countedAlignedAlloc(
        size, static_cast<std::size_t>(align));
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return grp::obs::countedAlignedAlloc(
        size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return grp::obs::countedAlignedAlloc(
        size, static_cast<std::size_t>(align));
}

void
operator delete(void *ptr) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    grp::obs::countedFree(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    grp::obs::countedFree(ptr);
}
