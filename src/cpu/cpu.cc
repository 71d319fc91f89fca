#include "cpu/cpu.hh"

#include <algorithm>

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

Cpu::Cpu(const SimConfig &config, MemorySystem &mem, EventQueue &events,
         TraceSource &trace, const HintTable *hints,
         obs::StatRegistry &registry)
    : config_(config),
      mem_(mem),
      events_(events),
      trace_(trace),
      hints_(hints),
      elideIndirect_(!hints || !config.usesHints()),
      stats_("cpu"),
      statReg_(stats_, registry)
{
    robCapacity_ = config.cpu.robEntries;
    size_t storage = 1;
    while (storage < robCapacity_)
        storage <<= 1;
    robEntries_.resize(storage);
    robMask_ = storage - 1;
    mem_.setLoadCallback([this](uint64_t token) { loadDone(token); });
    robFullStalls_ = &stats_.counter("robFullStalls");
    loads_ = &stats_.counter("loads");
    stores_ = &stats_.counter("stores");
    indirectPrefetchOps_ = &stats_.counter("indirectPrefetchOps");
    memStalls_ = &stats_.counter("memStalls");
}

void
Cpu::loadDone(uint64_t token)
{
    const size_t slot = static_cast<uint32_t>(token);
    const uint32_t generation = static_cast<uint32_t>(token >> 32);
    panic_if(slot >= robEntries_.size(), "bad load token slot");
    RobEntry &entry = robEntries_[slot];
    panic_if(!entry.busy || !entry.waitingOnLoad ||
             entry.generation != generation,
             "load completion for a stale ROB slot");
    entry.waitingOnLoad = false;
    entry.readyAt = events_.curTick();
}

bool
Cpu::refill()
{
    if (traceDone_)
        return false;
    GRP_HOST_SCOPE(2, Interp);
    const size_t n = trace_.nextBatch(&batch_);
    batchEnd_ = batch_ + n;
    traceDone_ = n == 0;
    return !traceDone_;
}

void
Cpu::tick()
{
    const Tick now = events_.curTick();
    ++cycles_;
    // The ring indices and the instruction count live in locals for
    // the whole tick; nothing called below reads them.
    size_t head = robHead_;
    size_t tail = robTail_;
    size_t count = robCount_;

    // Retire up to retireWidth completed instructions in order: the
    // head entry gives up as many as the width has left.
    const unsigned retire_width = config_.cpu.retireWidth;
    unsigned retired_now = 0;
    while (retired_now < retire_width && count > 0) {
        RobEntry &entry = robEntries_[head];
        if (entry.waitingOnLoad || entry.readyAt > now)
            break;
        const uint32_t take =
            std::min<uint32_t>(entry.count, retire_width - retired_now);
        entry.count -= take;
        count -= take;
        retired_now += take;
        if (entry.count == 0) {
            entry.busy = false;
            head = (head + 1) & robMask_;
        }
    }
    if (retired_now) {
        retired_ += retired_now;
        lastRetireTick_ = now;
    }

    if (count > 0 && now - lastRetireTick_ > config_.deadlockCycles)
        panic("no instruction retired for %llu cycles: deadlock",
              (unsigned long long)config_.deadlockCycles);

    // Issue up to issueWidth instructions; the share of a compute run
    // that issues this cycle takes one entry.
    const unsigned issue_width = config_.cpu.issueWidth;
    unsigned issued = 0;
    while (issued < issue_width) {
        if (count == robCapacity_) {
            ++*robFullStalls_;
            break;
        }
        const TraceOp *op = fetchNext();
        if (!op)
            break;

        const size_t slot = tail;
        RobEntry &entry = robEntries_[slot];
        uint32_t n = 1;
        bool accepted = true;
        bool waiting = false;
        Tick ready = now + config_.cpu.computeLatency;

        switch (op->kind) {
          case OpKind::Compute:
            panic_if(runLeft_ == 0, "compute op of count 0");
            n = std::min<uint32_t>(
                {runLeft_, issue_width - issued,
                 static_cast<uint32_t>(robCapacity_ - count)});
            break;
          case OpKind::Load: {
            // An L1 hit completes synchronously; only a miss looks up
            // the hints and round-trips through the event queue and
            // the loadDone callback.
            GRP_HOST_SCOPE(2, MemAccess);
            if (!mem_.loadHit(op->addr, ready)) {
                ++entry.generation;
                const uint64_t token =
                    (static_cast<uint64_t>(entry.generation) << 32) | slot;
                accepted = mem_.loadMiss(op->addr, op->refId,
                                         hintsFor(op->refId), token);
                if (accepted)
                    waiting = true;
                else
                    --entry.generation;
            }
            if (accepted)
                ++*loads_;
            break;
          }
          case OpKind::Store: {
            GRP_HOST_SCOPE(2, MemAccess);
            accepted = mem_.storeHit(op->addr) ||
                       mem_.storeMiss(op->addr, op->refId,
                                      hintsFor(op->refId));
            if (accepted)
                ++*stores_;
            break;
          }
          case OpKind::IndirectPrefetch:
            mem_.indirectPrefetch(op->base, op->elemSize, op->addr,
                                  op->refId);
            ++*indirectPrefetchOps_;
            break;
        }

        if (!accepted) {
            // Structural stall: keep the op pending, stop issuing.
            ++*memStalls_;
            break;
        }

        entry.busy = true;
        entry.waitingOnLoad = waiting;
        entry.readyAt = ready;
        entry.count = n;
        tail = (tail + 1) & robMask_;
        count += n;
        issued += n;
        // A memory op is one instruction; a run stays pending until
        // its last share issues.
        if (op->kind != OpKind::Compute || (runLeft_ -= n) == 0)
            pending_ = nullptr;
    }

    robHead_ = head;
    robTail_ = tail;
    robCount_ = count;
}

Cpu::StallState
Cpu::blockedState(const RobEntry &head) const
{
    StallState st;
    if (robFull()) {
        // Blocked head, full ROB: tick() only counts a robFullStalls.
        st.stalled = true;
        st.robFullPath = true;
    } else if (traceDone_ && !pending_) {
        // Blocked head, nothing left to issue: tick() is a pure wait.
        st.stalled = true;
    }
    // Otherwise tick() would fetch/issue (or retry a memory-rejected
    // op, whose per-attempt counters must accrue cycle by cycle) —
    // not skippable.
    if (st.stalled && !head.waitingOnLoad)
        st.readyTick = head.readyAt;
    return st;
}

void
Cpu::fastForward(uint64_t cycles, bool robFullPath)
{
    cycles_ += cycles;
    if (robFullPath)
        *robFullStalls_ += cycles;
}

} // namespace grp
