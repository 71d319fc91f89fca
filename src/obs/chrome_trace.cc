#include "obs/chrome_trace.hh"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/json_reader.hh"
#include "obs/json_writer.hh"

namespace grp
{
namespace obs
{

namespace
{

constexpr int kPid = 1;

/** One track (Chrome "thread") per hint class, in enum order. */
int
tidOf(HintClass hint)
{
    return static_cast<int>(hint) + 1;
}

/** Emits one trace_event object with the fields every phase
 *  shares. */
class EventEmitter
{
  public:
    explicit EventEmitter(JsonWriter &w) : w_(w) {}

    JsonWriter &
    common(const char *ph, const char *name, Tick ts, int tid)
    {
        w_.beginObject();
        w_.kv("ph", ph);
        w_.kv("name", name);
        w_.kv("pid", kPid);
        w_.kv("tid", tid);
        w_.kv("ts", static_cast<uint64_t>(ts));
        return w_;
    }

    /** Async phases (b/n/e) additionally carry a category and a
     *  span id. */
    JsonWriter &
    async(const char *ph, const char *name, Tick ts, int tid,
          const std::string &id)
    {
        common(ph, name, ts, tid);
        w_.kv("cat", "prefetch");
        w_.kv("id", id);
        return w_;
    }

  private:
    JsonWriter &w_;
};

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<TraceLine> &lines,
                 const JsonValue *timeseries)
{
    JsonWriter w(os, /*pretty=*/false);
    EventEmitter emit(w);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    // Track names. Chrome sorts tracks by tid; the enum order
    // (spatial, pointer, recursive, indirect, stride) is the order
    // the paper discusses the hint classes in.
    emit.common("M", "process_name", 0, 0);
    w.key("args").beginObject().kv("name", "grpsim").endObject();
    w.endObject();
    for (HintClass hint :
         {HintClass::None, HintClass::Spatial, HintClass::Pointer,
          HintClass::Recursive, HintClass::Indirect,
          HintClass::Stride}) {
        emit.common("M", "thread_name", 0, tidOf(hint));
        w.key("args").beginObject();
        w.kv("name", hint == HintClass::None
                         ? "unattributed"
                         : toString(hint));
        w.endObject();
        w.endObject();
    }

    // Span ids must be unique per arc, not per block: a block can be
    // prefetched again after eviction, so the id is addr + a
    // per-block generation counter.
    std::unordered_map<Addr, uint64_t> generation;
    std::unordered_map<Addr, std::string> open;
    // Running pollution-miss count, emitted as a counter track so the
    // cost accumulates visibly alongside the lifecycle arcs.
    uint64_t pollutionMisses = 0;
    auto openArc = [&](const TraceLine &line) {
        std::ostringstream id;
        id << "0x" << std::hex << line.addr << std::dec << "#"
           << generation[line.addr]++;
        open[line.addr] = id.str();
        return open[line.addr];
    };

    for (const TraceLine &line : lines) {
        const int tid = tidOf(line.hint);
        switch (line.event) {
          case TraceEvent::Issue: {
            emit.async("b", toString(line.hint), line.t, tid,
                       openArc(line));
            w.key("args").beginObject();
            w.kv("addr", line.addr);
            w.kv("site", line.site);
            if (line.extra >= 0)
                w.kv("ptrDepth", line.extra);
            if (line.warm)
                w.kv("warm", true);
            w.endObject();
            w.endObject();
            break;
          }
          case TraceEvent::Fill: {
            auto it = open.find(line.addr);
            // A fill with no issue before it (an analyzer
            // violation) opens its own arc, so spans stay balanced.
            const std::string &id = it != open.end()
                                        ? it->second
                                        : openArc(line);
            emit.async(it != open.end() ? "n" : "b",
                       toString(line.hint), line.t, tid, id);
            w.key("args").beginObject();
            w.kv("addr", line.addr);
            w.kv("phase", "fill");
            w.endObject();
            w.endObject();
            break;
          }
          case TraceEvent::FirstUse:
          case TraceEvent::EvictedUnused: {
            const bool used = line.event == TraceEvent::FirstUse;
            auto it = open.find(line.addr);
            if (it == open.end()) {
                // Carryover use of a fill that predates the trace.
                emit.common("i", used ? "carryoverUse" : "evicted",
                            line.t, tid);
                w.kv("s", "t");
                w.key("args").beginObject().kv("addr", line.addr);
                w.endObject();
                w.endObject();
                break;
            }
            emit.async("e", toString(line.hint), line.t, tid,
                       it->second);
            w.key("args").beginObject();
            w.kv("outcome", used ? "used" : "evictedUnused");
            if (used && line.extra >= 0)
                w.kv("fillToUse", line.extra);
            w.endObject();
            w.endObject();
            open.erase(it);
            break;
          }
          case TraceEvent::PollutionMiss: {
            ++pollutionMisses;
            emit.common("i", "pollutionMiss", line.t, tid);
            w.kv("s", "t");
            w.key("args").beginObject();
            w.kv("addr", line.addr);
            if (line.site >= 0)
                w.kv("site", line.site);
            w.endObject();
            w.endObject();
            emit.common("C", "pollutionMisses", line.t, 0);
            w.key("args").beginObject();
            w.kv("value", pollutionMisses);
            w.endObject();
            w.endObject();
            break;
          }
          case TraceEvent::HintTrigger:
          case TraceEvent::Enqueue:
          case TraceEvent::Drop:
          case TraceEvent::Filtered:
          case TraceEvent::EvictVictim:
          case TraceEvent::CtrlTransition:
          case TraceEvent::Stall: {
            emit.common("i", toString(line.event), line.t, tid);
            w.kv("s", "t");
            w.key("args").beginObject();
            w.kv("addr", line.addr);
            if (line.extra >= 0)
                w.kv("count", line.extra);
            if (line.site >= 0)
                w.kv("site", line.site);
            w.endObject();
            w.endObject();
            break;
          }
        }
    }

    // Time-series trajectories as counter tracks.
    if (timeseries) {
        const JsonValue *series = timeseries->find("series");
        if (series && series->isObject()) {
            for (const auto &[name, traj] : series->asObject()) {
                const JsonValue *t = traj.find("t");
                const JsonValue *v = traj.find("v");
                if (!t || !v || !t->isArray() || !v->isArray())
                    continue;
                const size_t n = std::min(t->asArray().size(),
                                          v->asArray().size());
                for (size_t i = 0; i < n; ++i) {
                    // A sample time no Tick holds is corrupt: skip
                    // it rather than cast it.
                    const double tick = t->asArray()[i].asNumber();
                    if (!(tick >= 0.0 && tick < 0x1p64))
                        continue;
                    emit.common("C", name.c_str(),
                                static_cast<Tick>(tick), 0);
                    w.key("args").beginObject();
                    w.kv("value", v->asArray()[i].asNumber());
                    w.endObject();
                    w.endObject();
                }
            }
        }
    }

    w.endArray();
    w.endObject();
}

bool
writeChromeTraceFile(const std::string &path,
                     const std::vector<TraceLine> &lines,
                     const JsonValue *timeseries)
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeChromeTrace(os, lines, timeseries);
    return os.good();
}

} // namespace obs
} // namespace grp
