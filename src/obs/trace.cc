#include "obs/trace.hh"

#include "obs/atomic_file.hh"
#include "obs/bintrace.hh"
#include "obs/host_prof.hh"
#include "obs/site_profile.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace grp
{
namespace obs
{

const char *
toString(HintClass hint)
{
    switch (hint) {
      case HintClass::None:      return "none";
      case HintClass::Spatial:   return "spatial";
      case HintClass::Pointer:   return "pointer";
      case HintClass::Recursive: return "recursive";
      case HintClass::Indirect:  return "indirect";
      case HintClass::Stride:    return "stride";
    }
    return "?";
}

const char *
toString(TraceEvent event)
{
    switch (event) {
      case TraceEvent::HintTrigger:   return "hintTrigger";
      case TraceEvent::Enqueue:       return "enqueue";
      case TraceEvent::Drop:          return "drop";
      case TraceEvent::Issue:         return "issue";
      case TraceEvent::Stall:         return "stall";
      case TraceEvent::Filtered:      return "filtered";
      case TraceEvent::Fill:          return "fill";
      case TraceEvent::FirstUse:      return "firstUse";
      case TraceEvent::EvictedUnused: return "evictedUnused";
      case TraceEvent::EvictVictim:   return "evictVictim";
      case TraceEvent::PollutionMiss: return "pollutionMiss";
      case TraceEvent::CtrlTransition: return "ctrlTransition";
    }
    return "?";
}

bool
isTracePath(const std::string &path)
{
    const std::string suffix = ".grpbin";
    return path == "-" ||
           (path.size() > suffix.size() &&
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) == 0);
}

size_t
formatTraceLine(char *buf, size_t cap, Tick tick,
                const TraceRecord &rec, bool warm)
{
    size_t n = (size_t)std::snprintf(
        buf, cap, "{\"t\":%llu,\"ev\":\"%s\"",
        (unsigned long long)tick, toString(rec.event));
    const auto append = [&](const char *fmt, auto value) {
        n += (size_t)std::snprintf(buf + n, cap - n, fmt, value);
    };
    if (rec.addr)
        append(",\"addr\":%llu", (unsigned long long)rec.addr);
    if (rec.hint != HintClass::None)
        append(",\"hint\":\"%s\"", toString(rec.hint));
    if (rec.channel >= 0)
        append(",\"ch\":%d", rec.channel);
    if (rec.extra >= 0)
        append(",\"x\":%lld", (long long)rec.extra);
    if (rec.site != kInvalidRefId)
        append(",\"site\":%llu", (unsigned long long)rec.site);
    if (warm)
        append("%s", ",\"warm\":true");
    if (rec.carryover)
        append("%s", ",\"carry\":true");
    append("%s", "}\n");
    return n;
}

std::vector<std::vector<std::string>>
lifecycleTables()
{
    std::vector<std::string> events;
    for (int e = 0; e <= static_cast<int>(TraceEvent::CtrlTransition);
         ++e)
        events.push_back(toString(static_cast<TraceEvent>(e)));
    std::vector<std::string> hints;
    for (int h = 0; h <= static_cast<int>(HintClass::Stride); ++h)
        hints.push_back(toString(static_cast<HintClass>(h)));
    return {std::move(events), std::move(hints)};
}

Tracer &
Tracer::instance()
{
    thread_local Tracer tracer;
    return tracer;
}

Tracer::~Tracer()
{
    close();
}

bool
Tracer::open(const std::string &path)
{
    close();
    if (!isTracePath(path)) {
        warn("trace path '%s' is not a .grpbin file (or '-')",
             path.c_str());
        return false;
    }
    if (path == "-") {
        out_ = stdout;
        toStdout_ = true;
        // No setvbuf: stdout may already have buffered output.
    } else {
        toStdout_ = false;
        publishPath_ = path;
        const std::string tmp = path + ".tmp";
        out_ = std::fopen(tmp.c_str(), "wb");
        if (!out_) {
            warn("cannot open trace file '%s'", tmp.c_str());
            return false;
        }
        if (!iobuf_)
            iobuf_ = std::make_unique<char[]>(kStreamBufBytes);
        std::setvbuf(out_, iobuf_.get(), _IOFBF, kStreamBufBytes);
    }
    bin_ = std::make_unique<bintrace::Writer>(
        out_, lifecycleTables(), checkpointInterval_);
    records_ = 0;
    return true;
}

void
Tracer::close()
{
    if (out_) {
        bin_->finalize();
        bin_.reset();
        if (toStdout_) {
            std::fflush(out_);
        } else {
            std::fclose(out_);
            publishTempFile(publishPath_ + ".tmp", publishPath_,
                            "trace");
        }
        out_ = nullptr;
    }
    level_ = 0;
    warmup_ = false;
}

void
Tracer::record(const TraceRecord &rec)
{
    GRP_HOST_SCOPE(2, TraceEmit);
    if (!out_)
        return;
    bin_->record(rec, clock_ ? clock_->curTick() : 0, warmup_);
    ++records_;
}

void
LifecycleFold::bindMemory(StatGroup &mem, ClassCountTable &by_class)
{
    issued_ = &mem.counter("prefetchesIssued");
    demandThrottled_ = &mem.counter("prefetchDemandThrottled");
    mshrThrottled_ = &mem.counter("prefetchMshrThrottled");
    filtered_ = &mem.counter("prefetchFiltered");
    useful_ = &mem.counter("usefulPrefetches");
    carryoverUseful_ = &mem.counter("usefulPrefetchWarmupCarryover");
    useDistance_ = &mem.distribution("prefetchToUseDistance");
    evictedUnused_ = &mem.counter("prefetchEvictedUnused");
    byClass_ = &by_class;
}

void
LifecycleFold::bindPollution(StatGroup &mem)
{
    victimsRecorded_ = &mem.counter("pollutionVictimsRecorded");
    pollutionMisses_ = &mem.counter("pollutionMisses");
    pollutionAttributed_ = &mem.counter("pollutionAttributed");
    pollutionUnattributed_ = &mem.counter("pollutionUnattributed");
}

void
LifecycleFold::bindQueue(StatGroup &queue)
{
    entriesDropped_ = &queue.counter("entriesDropped");
    candidatesDropped_ = &queue.counter("candidatesDropped");
}

void
LifecycleFold::bindController(StatGroup &adaptive)
{
    const char *const knobs[] = {"Size", "Insert", "Priority", "Depth"};
    for (std::size_t k = 0; k < transitions_.size(); ++k)
        transitions_[k] =
            &adaptive.counter(std::string("transitions") + knobs[k]);
}

void
LifecycleFold::fold(const TraceRecord &rec)
{
    const auto cls = static_cast<std::size_t>(rec.hint);
    switch (rec.event) {
      case TraceEvent::Drop:
        ++*entriesDropped_;
        *candidatesDropped_ += static_cast<uint64_t>(rec.extra);
        break;
      case TraceEvent::Issue:
        ++*issued_;
        break;
      case TraceEvent::Filtered:
        ++*filtered_;
        break;
      case TraceEvent::Fill:
        // Carry-flagged records concern requests from before the
        // warmup boundary; the per-class counts cover the measured
        // window only.
        if (!rec.carryover)
            ++(*byClass_)[cls].fills;
        break;
      case TraceEvent::FirstUse:
        if (rec.carryover) {
            ++*carryoverUseful_;
            break;
        }
        ++*useful_;
        ++(*byClass_)[cls].useful;
        useDistance_->sample(static_cast<uint64_t>(rec.extra));
        break;
      case TraceEvent::EvictedUnused:
        ++*evictedUnused_;
        break;
      case TraceEvent::EvictVictim:
        ++*victimsRecorded_;
        break;
      case TraceEvent::PollutionMiss:
        // Every prefetch carries a hint class, so exactly the misses
        // the victim table charged to a prefetch name one.
        ++*pollutionMisses_;
        ++*(rec.hint != HintClass::None ? pollutionAttributed_
                                        : pollutionUnattributed_);
        break;
      case TraceEvent::CtrlTransition:
        ++*transitions_[static_cast<std::size_t>(rec.channel)];
        break;
      default: // Hint triggers and enqueues.
        break;
    }
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled(traceLevelOf(rec.event)))
        tracer.record(rec);
    SiteProfiler &profiler = SiteProfiler::instance();
    if (profiler.enabled())
        profiler.note(rec);
}

} // namespace obs
} // namespace grp
