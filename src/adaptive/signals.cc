#include "adaptive/signals.hh"

#include "mem/memory_system.hh"
#include "mem/prefetch_iface.hh"

namespace grp
{
namespace adaptive
{

EpochSignals
Signals::sample()
{
    const Sample cur = source_();
    EpochSignals out;
    out.prefetchesIssued = delta(cur.prefetchesIssued,
                                 prev_.prefetchesIssued);
    out.prefetchFills = delta(cur.prefetchFills, prev_.prefetchFills);
    out.usefulPrefetches = delta(cur.usefulPrefetches,
                                 prev_.usefulPrefetches);
    out.pollutionMisses = delta(cur.pollutionMisses,
                                prev_.pollutionMisses);
    out.l2DemandAccesses = delta(cur.l2DemandAccesses,
                                 prev_.l2DemandAccesses);
    out.channelCycles = delta(cur.channelCycles, prev_.channelCycles);
    out.idleCycles = delta(cur.idleCycles, prev_.idleCycles);
    out.queueDepth = cur.queueDepth;
    out.queueCapacity = cur.queueCapacity;
    for (std::size_t i = 0; i < kNumClasses; ++i) {
        out.byClass[i].fills = delta(cur.byClass[i].fills,
                                     prev_.byClass[i].fills);
        out.byClass[i].useful = delta(cur.byClass[i].useful,
                                      prev_.byClass[i].useful);
    }
    prev_ = cur;
    return out;
}

void
Signals::reprime()
{
    prev_ = source_();
}

Signals::Source
memorySource(MemorySystem &mem, const PrefetchEngine *engine)
{
    return [&mem, engine] {
        Sample s;
        const StatGroup &ms = mem.stats();
        s.prefetchesIssued = ms.value("prefetchesIssued");
        s.prefetchFills = ms.value("prefetchFills");
        s.usefulPrefetches = ms.value("usefulPrefetches");
        s.pollutionMisses = ms.value("pollutionMisses");
        s.l2DemandAccesses = ms.value("l2DemandAccesses");
        const StatGroup &ds = mem.dram().stats();
        s.idleCycles = ds.value("contentionIdleCycles");
        s.channelCycles = s.idleCycles +
                          ds.value("contentionDemandCycles") +
                          ds.value("contentionPrefetchCycles") +
                          ds.value("contentionWritebackCycles");
        s.queueDepth = engine ? engine->queueDepth() : 0;
        s.queueCapacity = engine ? engine->queueCapacity() : 0;
        s.byClass = mem.classPrefetchCounts();
        return s;
    };
}

} // namespace adaptive
} // namespace grp
