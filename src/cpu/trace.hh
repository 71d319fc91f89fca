/**
 * @file
 * The dynamic instruction stream consumed by the CPU model.
 *
 * Workload kernels produce TraceOps lazily through the TraceSource
 * interface; each memory op carries the RefId of its static reference
 * so the CPU can attach compiler hints (the "hinted binary").
 *
 * Counted runs: a Compute op stands for `count` consecutive compute
 * instructions (at least 1), and every other op for exactly one
 * instruction. A stream is its instruction sequence: a run of n may
 * arrive as one op of count n or as several ops whose counts sum to
 * n, split anywhere, and the simulated result is the same. Positions
 * in a stream (a recording's blocks, fetchSpan(), instruction
 * windows) count instructions, not ops.
 */

#ifndef GRP_CPU_TRACE_HH
#define GRP_CPU_TRACE_HH

#include <cstdint>

#include "sim/types.hh"

namespace grp
{

/** Dynamic operation kinds. */
enum class OpKind : uint8_t
{
    Compute,          ///< A run of `count` non-memory instructions.
    Load,             ///< Data load from addr.
    Store,            ///< Data store to addr.
    IndirectPrefetch, ///< GRP indirect prefetch instruction (§3.3.3).
};

/** One dynamic op: a memory or indirect prefetch instruction, or a
 *  run of compute instructions (see the file comment). */
struct TraceOp
{
    OpKind kind = OpKind::Compute;
    RefId refId = kInvalidRefId;
    Addr addr = 0;      ///< Effective / index-array address.
    Addr base = 0;      ///< Indirect prefetch: target array base.
    uint32_t elemSize = 0; ///< Indirect prefetch: target element size.
    /** Instructions the op stands for: at least 1 for Compute (the
     *  encoder and the CPU panic on 0), exactly 1 for the rest. */
    uint32_t count = 1;

    static TraceOp
    compute(uint32_t count = 1)
    {
        TraceOp op;
        op.count = count;
        return op;
    }

    static TraceOp
    load(Addr addr, RefId ref)
    {
        TraceOp op;
        op.kind = OpKind::Load;
        op.addr = addr;
        op.refId = ref;
        return op;
    }

    static TraceOp
    store(Addr addr, RefId ref)
    {
        TraceOp op;
        op.kind = OpKind::Store;
        op.addr = addr;
        op.refId = ref;
        return op;
    }

    static TraceOp
    indirect(Addr base, uint32_t elem_size, Addr index_addr, RefId ref)
    {
        TraceOp op;
        op.kind = OpKind::IndirectPrefetch;
        op.base = base;
        op.elemSize = elem_size;
        op.addr = index_addr;
        op.refId = ref;
        return op;
    }
};

static_assert(sizeof(TraceOp) == 32,
              "TraceOp is four words; the run count uses its padding");

/** Lazy producer of the dynamic instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next op; returns false at end of trace. */
    virtual bool next(TraceOp &op) = 0;

    /**
     * Produce a run of consecutive ops at once: points @p ops at an
     * internal buffer that stays valid until the next nextBatch()/
     * next() call and returns the number of ops (0 at end of trace),
     * not of instructions. The CPU relies on that: it issues from the
     * buffer in place, keeps a pointer to its pending op there, and
     * asks for the next run only once no op is pending. The
     * concatenation of batches is element-for-element the next()
     * stream — sources that hold ops in blocks (the decoded
     * interpreter's 256-op block, a sweep recording's
     * 4096-instruction block) override this so the CPU pays one
     * virtual call per block instead of per op. The default forwards
     * to next(), so a source that implements only next() (the tests'
     * op vectors) still works.
     */
    virtual size_t
    nextBatch(const TraceOp **ops)
    {
        if (!next(one_))
            return 0;
        *ops = &one_;
        return 1;
    }

  private:
    TraceOp one_;
};

} // namespace grp

#endif // GRP_CPU_TRACE_HH
