/**
 * @file
 * A simplified 4-wide out-of-order core.
 *
 * Models the aspects of the paper's sim-outorder configuration that
 * matter for L2 prefetching studies: a 64-entry reorder buffer, 4-wide
 * issue and in-order 4-wide retirement, full overlap of independent
 * loads (memory-level parallelism bounded by the ROB and the cache
 * MSHRs), and store-buffer semantics for stores. Instruction fetch is
 * assumed perfect (the SPEC kernels studied are data-bound).
 *
 * The op stream carries counted compute runs (cpu/trace.hh). The ROB
 * holds up to robEntries instructions, not entries: the share of a
 * run that issues in one cycle takes one entry that records how many
 * instructions it holds, and retirement takes from the head entry as
 * many as the retire width has left. All of an entry's instructions
 * issue in one cycle and complete together, so the cycle-by-cycle
 * result is that of one entry per instruction, wherever the source
 * split its runs.
 */

#ifndef GRP_CPU_CPU_HH
#define GRP_CPU_CPU_HH

#include <cstdint>
#include <vector>

#include "core/hint_table.hh"
#include "cpu/trace.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace grp
{

/** The timing CPU model. */
class Cpu
{
  public:
    /**
     * @param hints Hint table for the "hinted binary"; nullptr runs
     *        an unhinted binary (all-zero hints, indirect prefetch
     *        instructions elided from the stream).
     */
    Cpu(const SimConfig &config, MemorySystem &mem, EventQueue &events,
        TraceSource &trace, const HintTable *hints,
        obs::StatRegistry &registry = obs::StatRegistry::current());

    /** Advance one cycle: retire then issue. */
    void tick();

    /** Trace exhausted and pipeline drained. */
    bool
    done() const
    {
        return traceDone_ && !pending_ && robCount_ == 0;
    }

    /** What tick() would do at @p now, for the runner's stall
     *  fast-forward (see docs/PERFORMANCE.md). */
    struct StallState
    {
        /** tick() can neither retire nor change any state other than
         *  the per-cycle stall accounting — the cycle is skippable. */
        bool stalled = false;
        /** Stalled with a full ROB (one robFullStalls per cycle);
         *  false means the trace is drained and nothing is pending. */
        bool robFullPath = false;
        /** When the ROB head retires on its own (kMaxTick while it
         *  waits on a load — the completion event supplies the tick). */
        Tick readyTick = kMaxTick;
    };

    /** Inline up to the common answer, a cycle that retires or
     *  issues (the runner asks every cycle). */
    StallState
    stallState(Tick now) const
    {
        if (robCount_ == 0)
            return {}; // Empty pipeline issues or finishes.
        const RobEntry &head = robEntries_[robHead_];
        if (!head.waitingOnLoad && head.readyAt <= now)
            return {}; // tick() would retire.
        return blockedState(head);
    }

    /** Apply @p cycles skipped stall cycles in one batch: the cycle
     *  count and (on the full-ROB path) one robFullStalls per cycle,
     *  exactly what per-cycle ticking would have accumulated. */
    void fastForward(uint64_t cycles, bool robFullPath);

    /** First tick at which the deadlock watchdog would fire. */
    Tick
    deadlockTick() const
    {
        return lastRetireTick_ + config_.deadlockCycles + 1;
    }

    uint64_t retiredInstructions() const { return retired_; }
    uint64_t cycles() const { return cycles_; }

    double
    ipc() const
    {
        return cycles_ ? static_cast<double>(retired_) / cycles_ : 0.0;
    }

    StatGroup &stats() { return stats_; }

  private:
    struct RobEntry
    {
        bool busy = false;
        bool waitingOnLoad = false;
        Tick readyAt = 0;
        /** Bumped per load miss, so a stale completion is caught. */
        uint32_t generation = 0;
        /** Instructions not yet retired: a compute share's issued
         *  count, 1 for any other op. */
        uint32_t count = 0;
    };

    /** Load-completion callback from the memory system. */
    void loadDone(uint64_t token);

    /** stallState() once the ROB head cannot retire. */
    StallState blockedState(const RobEntry &head) const;

    /** The op to issue next, or nullptr once the trace is done. It
     *  points into the source's current block: refill() runs only
     *  while no op is pending, so the block outlives the pointer. An
     *  unhinted binary contains no indirect prefetch instructions at
     *  all, so they are skipped here and cost nothing. */
    const TraceOp *
    fetchNext()
    {
        while (!pending_) {
            if (batch_ == batchEnd_ && !refill())
                return nullptr;
            const TraceOp *op = batch_++;
            if (op->kind != OpKind::IndirectPrefetch || !elideIndirect_) {
                pending_ = op;
                runLeft_ = op->count;
            }
        }
        return pending_;
    }

    /** Take the source's next block; false at the end of the trace. */
    bool refill();

    bool robFull() const { return robCount_ == robCapacity_; }

    /** Hints for @p ref: the table's entry, or all-zero hints when
     *  running an unhinted binary. */
    const LoadHints &
    hintsFor(RefId ref) const
    {
        static const LoadHints kNoHints{};
        return hints_ ? hints_->get(ref) : kNoHints;
    }

    SimConfig config_;
    MemorySystem &mem_;
    EventQueue &events_;
    TraceSource &trace_;
    const HintTable *hints_;
    /** Unhinted binary: indirect prefetch ops are not in the stream. */
    bool elideIndirect_;

    // Storage is robEntries rounded up to a power of two so the ring
    // indices advance with a mask instead of a modulo. An entry holds
    // at least one instruction, so the ring never runs out before
    // robCount_ (instructions) reaches robCapacity_, the
    // architectural ROB size.
    std::vector<RobEntry> robEntries_;
    size_t robMask_ = 0;
    size_t robCapacity_ = 0;
    size_t robHead_ = 0;
    size_t robTail_ = 0;
    size_t robCount_ = 0;

    /** Fetched but not yet issued (a memory-rejected op, or a run
     *  whose rest did not fit this cycle, stays here across cycles);
     *  nullptr when none is. */
    const TraceOp *pending_ = nullptr;
    /** Instructions of a pending compute run not yet issued. */
    uint32_t runLeft_ = 0;
    bool traceDone_ = false;

    /** Unread rest of the source's current block. */
    const TraceOp *batch_ = nullptr;
    const TraceOp *batchEnd_ = nullptr;

    uint64_t retired_ = 0;
    uint64_t cycles_ = 0;
    Tick lastRetireTick_ = 0;

    StatGroup stats_;
    obs::ScopedStatRegistration statReg_;

    /** Cached counter handles (lookup once at construction). */
    Counter *robFullStalls_ = nullptr;
    Counter *loads_ = nullptr;
    Counter *stores_ = nullptr;
    Counter *indirectPrefetchOps_ = nullptr;
    Counter *memStalls_ = nullptr;
};

} // namespace grp

#endif // GRP_CPU_CPU_HH
