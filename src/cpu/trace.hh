/**
 * @file
 * The dynamic instruction stream consumed by the CPU model.
 *
 * Workload kernels produce TraceOps lazily through the TraceSource
 * interface; each memory op carries the RefId of its static reference
 * so the CPU can attach compiler hints (the "hinted binary").
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
    Compute,          ///< Non-memory instruction (one issue slot).
    Load,             ///< Data load from addr.
    Store,            ///< Data store to addr.
    IndirectPrefetch, ///< GRP indirect prefetch instruction (§3.3.3).
};

/** One dynamic instruction. */
struct TraceOp
{
    OpKind kind = OpKind::Compute;
    RefId refId = kInvalidRefId;
    Addr addr = 0;      ///< Effective / index-array address.
    Addr base = 0;      ///< Indirect prefetch: target array base.
    uint32_t elemSize = 0; ///< Indirect prefetch: target element size.

    static TraceOp
    compute()
    {
        return TraceOp{};
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
     * next() call and returns the run length (0 at end of trace).
     * The concatenation of batches is element-for-element the next()
     * stream — sources that can expose runs cheaply (the decoded
     * interpreter's compute runs, the sweep replay buffer) override
     * this so the CPU pays one virtual call per run instead of per
     * op. The default forwards to next(), so a source that
     * implements only next() (the tests' op vectors) still works.
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
