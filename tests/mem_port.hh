/**
 * @file
 * Issues loads and stores to a MemorySystem one call per access, as
 * the memory-system tests drive it: the L1 half (loadHit/storeHit),
 * then the miss path when it misses. The CPU absorbs an L1 hit
 * itself; here the hit's completion is scheduled l1d.latency cycles
 * out on the event queue, so every load a test issues finishes
 * through its callback, hit or miss.
 */

#ifndef GRP_TESTS_MEM_PORT_HH
#define GRP_TESTS_MEM_PORT_HH

#include <cstdint>
#include <utility>

#include "mem/memory_system.hh"
#include "sim/event_queue.hh"

namespace grp
{

class MemPort
{
  public:
    /** Installs @p done as @p mem's load callback; L1 hits call it
     *  too. */
    MemPort(MemorySystem &mem, EventQueue &events,
            MemorySystem::LoadCallback done)
        : mem_(mem), events_(events), done_(std::move(done))
    {
        mem_.setLoadCallback([this](uint64_t token) { done_(token); });
    }

    MemPort(const MemPort &) = delete;
    MemPort &operator=(const MemPort &) = delete;

    /** false on a structural stall (MSHRs full); retry later. */
    bool
    load(Addr addr, RefId ref, const LoadHints &hints, uint64_t token)
    {
        Tick ready;
        if (!mem_.loadHit(addr, ready))
            return mem_.loadMiss(addr, ref, hints, token);
        events_.schedule(ready, [this, token] { done_(token); });
        return true;
    }

    /** false on a structural stall; retry later. */
    bool
    store(Addr addr, RefId ref, const LoadHints &hints)
    {
        return mem_.storeHit(addr) || mem_.storeMiss(addr, ref, hints);
    }

  private:
    MemorySystem &mem_;
    EventQueue &events_;
    MemorySystem::LoadCallback done_;
};

} // namespace grp

#endif // GRP_TESTS_MEM_PORT_HH
