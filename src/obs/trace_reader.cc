#include "obs/trace_reader.hh"

#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "obs/bintrace.hh"

namespace grp
{
namespace obs
{

namespace
{

/** Region windows are at most kBlocksPerRegion blocks, so an issue
 *  belongs to an enqueued window iff it lands within one region size
 *  of the window's base. */
constexpr uint64_t kWindowSpanBytes = kBlocksPerRegion * kBlockBytes;

} // namespace

std::optional<TraceEvent>
parseTraceEvent(const std::string &name)
{
    for (int e = 0; e <= static_cast<int>(TraceEvent::CtrlTransition);
         ++e) {
        if (name == toString(static_cast<TraceEvent>(e)))
            return static_cast<TraceEvent>(e);
    }
    return std::nullopt;
}

std::optional<HintClass>
parseHintClass(const std::string &name)
{
    for (int h = 0; h <= static_cast<int>(HintClass::Stride); ++h) {
        if (name == toString(static_cast<HintClass>(h)))
            return static_cast<HintClass>(h);
    }
    return std::nullopt;
}

TraceParseResult
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        TraceParseResult result;
        result.openFailed = true;
        result.errors.push_back("cannot open '" + path + "'");
        return result;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return bintrace::readLifecycle(buf.str());
}

std::string
jsonlLine(const TraceLine &line)
{
    TraceRecord rec(line.event, line.addr, line.hint, line.channel,
                    line.extra, line.carry,
                    line.site < 0 ? kInvalidRefId
                                  : static_cast<RefId>(line.site));
    char buf[256];
    const size_t n =
        formatTraceLine(buf, sizeof(buf), line.t, rec, line.warm);
    return std::string(buf, n);
}

TraceAnalysis
analyzeTrace(const std::vector<TraceLine> &lines)
{
    TraceAnalysis out;
    out.records = lines.size();

    // Lifecycle per block: absent = idle, false = issued (in
    // flight), true = filled (resident, unused).
    std::unordered_map<Addr, bool> state;
    // Base addresses of enqueued windows, for issue coverage.
    std::set<Addr> windows;
    // Blocks a prefetch fill evicted and a pollution miss could be
    // charged against (EvictVictim seen, not yet consumed).
    std::set<Addr> victims;

    for (const TraceLine &line : lines) {
        if (out.coverageChecked == false &&
            line.event == TraceEvent::Enqueue)
            out.coverageChecked = true;
        if (out.pollutionChecked == false &&
            line.event == TraceEvent::EvictVictim)
            out.pollutionChecked = true;
    }

    size_t lineno = 0;
    auto violate = [&](const std::string &why) {
        out.violations.push_back({lineno, why});
    };
    auto hexaddr = [](Addr addr) {
        std::ostringstream os;
        os << "block 0x" << std::hex << addr;
        return os.str();
    };

    for (const TraceLine &line : lines) {
        ++lineno;
        if (line.warm)
            ++out.warmupRecords;
        if (line.event == TraceEvent::Stall)
            continue; // No hint/site attribution to accumulate.
        if (line.event == TraceEvent::CtrlTransition) {
            // Controller knob moves touch no block lifecycle; check
            // the knob-id/level encoding and count the move.
            if (line.channel < 0 || line.channel > 3)
                violate("controller transition with knob id " +
                        std::to_string(line.channel) +
                        " outside [0, 3]");
            if (line.extra < 0 || line.extra > 2)
                violate("controller transition with level " +
                        std::to_string(line.extra) +
                        " outside [0, 2]");
            ++out.controllerTransitions;
            continue;
        }

        FunnelStats &cls = out.byClass[line.hint];
        FunnelStats &site = out.bySite[line.site];
        const uint64_t count =
            line.extra > 0 ? static_cast<uint64_t>(line.extra) : 1;
        // The measured-window columns mirror the simulator's
        // post-warmup counters, so warmup-era records (warm flag)
        // feed the state machine but not the funnel.
        const auto measure = [&](uint64_t FunnelStats::*column,
                                 uint64_t n) {
            if (!line.warm) {
                cls.*column += n;
                site.*column += n;
            }
        };

        switch (line.event) {
          case TraceEvent::HintTrigger:
            measure(&FunnelStats::triggers, 1);
            break;
          case TraceEvent::Enqueue:
            measure(&FunnelStats::enqueued, count);
            windows.insert(line.addr);
            break;
          case TraceEvent::Drop:
            measure(&FunnelStats::dropped, count);
            break;
          case TraceEvent::Stall:
          case TraceEvent::CtrlTransition:
            break; // Handled (continued) above.
          case TraceEvent::Filtered:
            measure(&FunnelStats::filtered, 1);
            break;
          case TraceEvent::Issue: {
            auto it = state.find(line.addr);
            if (it != state.end()) {
                violate(hexaddr(line.addr) + (it->second
                            ? " issued while already resident"
                            : " issued while already in flight"));
            }
            state[line.addr] = false;
            if (out.coverageChecked &&
                line.hint != HintClass::Stride) {
                // The covering window's base is the largest enqueued
                // base <= the issue address within one region span.
                auto window = windows.upper_bound(line.addr);
                const bool covered =
                    window != windows.begin() &&
                    line.addr - *--window < kWindowSpanBytes;
                if (!covered)
                    violate(hexaddr(line.addr) +
                            " issued without a covering enqueue");
            }
            measure(&FunnelStats::issued, 1);
            break;
          }
          case TraceEvent::Fill: {
            auto it = state.find(line.addr);
            if (it == state.end()) {
                // Stream-buffer hits fill without a channel issue.
                if (line.hint != HintClass::Stride)
                    violate(hexaddr(line.addr) +
                            " filled without an issue");
            } else if (it->second) {
                violate(hexaddr(line.addr) + " filled twice");
            }
            state[line.addr] = true;
            // A fill is warmup-era when emitted during warmup or
            // carry-flagged (its request predates the boundary).
            const auto column = line.warm || line.carry
                                    ? &FunnelStats::warmFills
                                    : &FunnelStats::fills;
            ++(cls.*column);
            ++(site.*column);
            break;
          }
          case TraceEvent::FirstUse: {
            auto it = state.find(line.addr);
            if (it == state.end() || !it->second) {
                // A carry-flagged use consumes a fill that predates
                // a stats reset; the fill may predate the trace too.
                if (!line.carry)
                    violate(hexaddr(line.addr) +
                            (it == state.end()
                                 ? " used without a fill"
                                 : " used while still in flight"));
            }
            if (it != state.end())
                state.erase(it);
            const bool warm_era = line.warm || line.carry;
            const auto column = warm_era ? &FunnelStats::warmUseful
                                         : &FunnelStats::useful;
            ++(cls.*column);
            ++(site.*column);
            // The writer clamps the distance; a larger one is corrupt
            // and would size the one-bucket-per-value Distribution.
            const uint64_t distance = static_cast<uint64_t>(line.extra);
            if (line.extra >= 0 && distance > kFillToUseCap) {
                violate(hexaddr(line.addr) + " fill-to-use distance " +
                        std::to_string(distance) +
                        " exceeds the writer's cap of " +
                        std::to_string(kFillToUseCap));
            } else if (!warm_era && line.extra >= 0) {
                cls.fillToUse.sample(distance);
                site.fillToUse.sample(distance);
            }
            break;
          }
          case TraceEvent::EvictedUnused: {
            auto it = state.find(line.addr);
            if (it == state.end() || !it->second) {
                violate(hexaddr(line.addr) +
                        (it == state.end()
                             ? " evicted without a fill"
                             : " evicted while still in flight"));
            }
            if (it != state.end())
                state.erase(it);
            measure(&FunnelStats::evictedUnused, 1);
            break;
          }
          case TraceEvent::EvictVictim:
            // The victim's own lifecycle (if it was a prefetch) is
            // traced separately via EvictedUnused; this record only
            // arms the pollution-attribution check.
            victims.insert(line.addr);
            break;
          case TraceEvent::PollutionMiss: {
            if (line.site >= 0 && out.pollutionChecked) {
                auto it = victims.find(line.addr);
                if (it == victims.end())
                    violate(hexaddr(line.addr) +
                            " pollution miss attributed without a "
                            "recorded victim");
                else
                    victims.erase(it);
            }
            measure(&FunnelStats::pollutionMisses, 1);
            break;
          }
        }
    }

    for (const auto &[addr, filled] : state) {
        (void)addr;
        if (filled)
            ++out.liveAtEnd;
        else
            ++out.inFlightAtEnd;
    }
    return out;
}

} // namespace obs
} // namespace grp
