/**
 * @file
 * The pre-decoded interpreter: lowers a kernel Program once into a
 * flat, cache-friendly array of fixed-size micro-ops, then executes
 * that array with a tight fetch-dispatch loop.
 *
 * DecodedProgram::lower() resolves everything a dynamic statement
 * needs exactly once: loop bounds become backward-branch ops, affine
 * subscripts become (coeff, stride) tables indexed by flat slot, and
 * per-dimension strides are folded to bytes. The executor is a
 * program counter over one contiguous op array that runs statements
 * straight into a block of kBlockOps TraceOps: it stops when fewer
 * than kMaxStmtOps slots are left (the most one statement emits) or
 * the last pass ends, and a compute run longer than the room left
 * continues in the next block. next() and nextBatch() both read
 * that one block.
 *
 * Stream contract: a (Program, FunctionalMemory, seed, passes)
 * tuple fixes the TraceOp stream, including the order of RNG draws,
 * the per-dimension wrap-into-extent semantics, null-pointer
 * statement skips and the pass lifecycle, and next() and nextBatch()
 * emit the same stream. tests/test_predecode.cc pins that stream as
 * FNV-1a digests, read both ways: every kernel as built and after
 * the hint generator's transform, the irregular kernels at three
 * seeds, and a synthetic program with every statement and loop
 * shape. The constants were taken from the tree-walking interpreter
 * this one replaced, so a change to any stream shows there and must
 * be meant.
 */

#ifndef GRP_WORKLOADS_PREDECODE_HH
#define GRP_WORKLOADS_PREDECODE_HH

#include <memory>
#include <vector>

#include "compiler/ir.hh"
#include "cpu/trace.hh"
#include "mem/functional_memory.hh"
#include "sim/rng.hh"

namespace grp
{

/** Flat affine expression: constant + sum of terms in the shared
 *  term pool [termBegin, termBegin + termCount). */
struct DecodedAffine
{
    int64_t constant = 0;
    uint32_t termBegin = 0;
    uint32_t termCount = 0;
};

/** One coeff * var term of a DecodedAffine. */
struct DecodedTerm
{
    uint32_t var = 0;
    int64_t coeff = 0;
};

/** One lowered subscript dimension. extent is the wrap modulus and
 *  strideBytes the address multiplier, both resolved at decode time
 *  (dimStrideElems * elemSize folded together). */
struct DecodedSub
{
    enum class Kind : uint8_t { Affine, Indirect, Random };

    Kind kind = Kind::Affine;
    DecodedAffine expr; ///< Affine value / Indirect index expression.
    uint64_t extent = 1;
    uint64_t strideBytes = 0;

    // Indirect payload: value = scale * b[index] + offset.
    Addr indexBase = 0;
    uint32_t indexElemSize = 0;
    uint64_t indexElems = 0;
    int64_t scale = 1;
    int64_t offset = 0;
    RefId indexRefId = kInvalidRefId;

    // Random payload.
    uint64_t randomRange = 0;
};

/** Lowered IndirectPf statement: everything the GRP indirect
 *  prefetch op needs, with the target base and element size
 *  pre-multiplied at decode time. */
struct DecodedIndirectPf
{
    DecodedAffine index;
    int64_t everyN = 16;
    Addr indexBase = 0;
    uint32_t indexElemSize = 0;
    uint64_t indexElems = 0;
    Addr targetBase = 0; ///< target.base + indexOffset * elemSize.
    uint32_t elem = 0;   ///< scale * target.elemSize.
    RefId refId = kInvalidRefId;
};

/** Decoded micro-op kinds: the statement kinds plus explicit loop
 *  head/tail branch ops (the lowering of Loop nodes). */
enum class DecodedOpKind : uint8_t
{
    ArrayRef1A,      ///< 1-D affine array ref (hot-path special case).
    ArrayRef,        ///< General N-D array ref.
    PtrLoadFromArray,
    PtrAddrOfArray,
    PtrRef,
    PtrArrayRef,
    PtrUpdateField,
    PtrSelectField,
    PtrUpdateConst,
    ComputeRun,      ///< A run of `count` compute ops.
    IndirectPf,
    LoopHeadCounted, ///< Enter test; initialises the induction var.
    LoopTailCounted, ///< Step + backward branch to the body.
    LoopHeadChase,   ///< Null/zero-trip test; resets the iter counter.
    LoopTailChase,   ///< Advance test + backward branch.
};

/**
 * One fixed-size decoded micro-op. Field roles by kind:
 *
 *  ArrayRef1A        a=sub index        base, isWrite, refId
 *  ArrayRef          a=subBegin, n=subCount, base, isWrite, refId
 *  PtrLoadFromArray  a=sub index, b=dst ptr, base, refId
 *  PtrAddrOfArray    a=sub index, b=dst ptr, base
 *  PtrRef            a=ptr, p0=offset, isWrite, refId
 *  PtrArrayRef       a=ptr, sub fields inline via b=sub index,
 *                    p0=elemSize, isWrite, refId
 *  PtrUpdateField    a=ptr, p0=offset, refId
 *  PtrSelectField    a=src ptr, b=dst ptr, p0=choiceBegin,
 *                    n=choiceCount, refId
 *  PtrUpdateConst    a=ptr, p0=stride
 *  ComputeRun        p0=count
 *  IndirectPf        a=index into the IndirectPf pool
 *  LoopHeadCounted   a=var, b=exit pc, p0=lower, p1=upper, p2=step
 *  LoopTailCounted   a=var, b=body pc, p1=upper, p2=step
 *  LoopHeadChase     a=ptr, b=exit pc, p0=maxIter, p1=counter index
 *  LoopTailChase     a=ptr, b=body pc, p0=maxIter, p1=counter index
 */
struct DecodedOp
{
    DecodedOpKind kind = DecodedOpKind::ComputeRun;
    bool isWrite = false;
    uint16_t n = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    RefId refId = kInvalidRefId;
    Addr base = 0;
    int64_t p0 = 0;
    int64_t p1 = 0;
    int64_t p2 = 0;
};

/** A Program lowered to flat pools; immutable and shareable across
 *  interpreters (decode once, execute per run). */
class DecodedProgram
{
  public:
    /** The most TraceOps one statement emits: an N-D reference with
     *  an index load per dimension. lower() refuses a statement that
     *  could emit more. */
    static constexpr uint32_t kMaxStmtOps = 8;

    /** Lower @p prog. The result is self-contained: it copies every
     *  bound, base and stride it needs out of the IR. */
    static DecodedProgram lower(const Program &prog);

    const std::vector<DecodedOp> &ops() const { return ops_; }

    uint32_t numVars() const { return numVars_; }
    uint32_t numChaseLoops() const { return numChaseLoops_; }
    const std::vector<Addr> &initialPtrs() const { return initialPtrs_; }

  private:
    friend class DecodedInterpreter;

    void lowerBody(const Program &prog, const std::vector<Node> &body);
    void lowerStmt(const Program &prog, const Stmt &stmt);
    void lowerLoop(const Program &prog, const Loop &loop);
    uint32_t addAffine(DecodedAffine &out, const Affine &expr);
    uint32_t addSub(const Program &prog, const ArrayDecl &array,
                    const Subscript &sub, uint64_t extent,
                    uint64_t stride_bytes);

    std::vector<DecodedOp> ops_;
    std::vector<DecodedSub> subs_;
    std::vector<DecodedTerm> terms_;
    std::vector<int64_t> choices_;
    std::vector<DecodedIndirectPf> indirects_;
    std::vector<Addr> initialPtrs_;
    uint32_t numVars_ = 0;
    uint32_t numChaseLoops_ = 0;
};

/** Executes a DecodedProgram into TraceOps (see the stream contract
 *  above). */
class DecodedInterpreter : public TraceSource
{
  public:
    /** Execute @p prog (must outlive the interpreter). */
    DecodedInterpreter(const DecodedProgram &prog, FunctionalMemory &mem,
                       uint64_t seed = 1, uint64_t passes = ~0ull);

    /** Owning variant: decodes @p prog internally. */
    DecodedInterpreter(const Program &prog, FunctionalMemory &mem,
                       uint64_t seed = 1, uint64_t passes = ~0ull);

    bool next(TraceOp &op) override;

    /** The unread rest of the current block, filling the next one
     *  first when it is used up: the same stream as next(). */
    size_t nextBatch(const TraceOp **ops) override;

  private:
    static constexpr size_t kBlockOps = 256;

    void startPass();
    /** Run statements into block_ (see the file comment); false
     *  once the last pass has ended and nothing was emitted. */
    bool fillBlock();
    void emitCompute(TraceOp *&out);
    int64_t evalAffine(const DecodedAffine &expr) const;
    uint64_t evalSub(const DecodedSub &sub, TraceOp *&out);

    std::unique_ptr<const DecodedProgram> owned_;
    const DecodedProgram &prog_;
    FunctionalMemory &mem_;
    uint64_t maxPasses_;
    uint64_t passesDone_ = 0;

    Rng rng_;
    std::vector<int64_t> vars_;
    std::vector<Addr> ptrs_;
    std::vector<uint64_t> chaseIters_;
    size_t pc_ = 0;

    TraceOp block_[kBlockOps];
    size_t pos_ = 0; ///< Next unread op in block_.
    size_t len_ = 0; ///< Ops in block_.
    uint64_t computeLeft_ = 0; ///< Rest of a run the block could not take.

    bool finished_ = false;
};

/** Build the TraceSource for one run: a DecodedInterpreter. */
std::unique_ptr<TraceSource> makeTraceSource(const Program &prog,
                                             FunctionalMemory &mem,
                                             uint64_t seed,
                                             uint64_t passes = ~0ull);

} // namespace grp

#endif // GRP_WORKLOADS_PREDECODE_HH
