#include "workloads/predecode.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace grp
{

// ---------------------------------------------------------------------------
// Lowering.

uint32_t
DecodedProgram::addAffine(DecodedAffine &out, const Affine &expr)
{
    out.constant = expr.constant;
    out.termBegin = static_cast<uint32_t>(terms_.size());
    out.termCount = static_cast<uint32_t>(expr.terms.size());
    for (const AffineTerm &term : expr.terms)
        terms_.push_back(DecodedTerm{static_cast<uint32_t>(term.var),
                                     term.coeff});
    return out.termCount;
}

uint32_t
DecodedProgram::addSub(const Program &prog, const ArrayDecl &array,
                       const Subscript &sub, uint64_t extent,
                       uint64_t stride_bytes)
{
    (void)array;
    DecodedSub d;
    d.extent = extent;
    d.strideBytes = stride_bytes;
    switch (sub.kind) {
      case Subscript::Kind::AffineExpr:
        d.kind = DecodedSub::Kind::Affine;
        addAffine(d.expr, sub.expr);
        break;
      case Subscript::Kind::Indirect: {
        d.kind = DecodedSub::Kind::Indirect;
        addAffine(d.expr, sub.indexExpr);
        const ArrayDecl &index =
            prog.arrays[static_cast<size_t>(sub.indexArray)];
        d.indexBase = index.base;
        d.indexElemSize = index.elemSize;
        d.indexElems = index.totalElems();
        d.scale = sub.scale;
        d.offset = sub.offset;
        d.indexRefId = sub.indexRefId;
        break;
      }
      case Subscript::Kind::Random:
        d.kind = DecodedSub::Kind::Random;
        d.randomRange = sub.randomRange;
        break;
    }
    subs_.push_back(d);
    return static_cast<uint32_t>(subs_.size() - 1);
}

void
DecodedProgram::lowerStmt(const Program &prog, const Stmt &stmt)
{
    DecodedOp op;
    op.isWrite = stmt.isWrite;
    op.refId = stmt.refId;
    switch (stmt.kind) {
      case StmtKind::ArrayRef: {
        const ArrayDecl &array =
            prog.arrays[static_cast<size_t>(stmt.array)];
        fatal_if(stmt.subs.size() + 1 > kMaxStmtOps,
                 "array reference with %zu dimensions could emit more "
                 "than %u ops in one statement", stmt.subs.size(),
                 kMaxStmtOps);
        const uint32_t begin = static_cast<uint32_t>(subs_.size());
        for (size_t d = 0; d < stmt.subs.size(); ++d) {
            addSub(prog, array, stmt.subs[d], array.extents[d],
                   array.dimStrideElems(d) * array.elemSize);
        }
        op.base = array.base;
        op.a = begin;
        op.n = static_cast<uint16_t>(stmt.subs.size());
        op.kind = (op.n == 1 &&
                   stmt.subs[0].kind == Subscript::Kind::AffineExpr)
                      ? DecodedOpKind::ArrayRef1A
                      : DecodedOpKind::ArrayRef;
        break;
      }
      case StmtKind::PtrLoadFromArray:
      case StmtKind::PtrAddrOfArray: {
        const ArrayDecl &array =
            prog.arrays[static_cast<size_t>(stmt.array)];
        op.kind = stmt.kind == StmtKind::PtrLoadFromArray
                      ? DecodedOpKind::PtrLoadFromArray
                      : DecodedOpKind::PtrAddrOfArray;
        op.a = addSub(prog, array, stmt.subs[0], array.totalElems(),
                      array.elemSize);
        op.b = static_cast<uint32_t>(stmt.ptr);
        op.base = array.base;
        break;
      }
      case StmtKind::PtrRef:
        op.kind = DecodedOpKind::PtrRef;
        op.a = static_cast<uint32_t>(stmt.ptr);
        op.p0 = stmt.offset;
        break;
      case StmtKind::PtrArrayRef: {
        op.kind = DecodedOpKind::PtrArrayRef;
        op.a = static_cast<uint32_t>(stmt.ptr);
        op.p0 = static_cast<int64_t>(stmt.elemSize);
        // PtrArrayRef never carries Indirect subscripts: any
        // non-affine subscript here is Random.
        DecodedSub d;
        if (stmt.subs[0].kind == Subscript::Kind::AffineExpr) {
            d.kind = DecodedSub::Kind::Affine;
            addAffine(d.expr, stmt.subs[0].expr);
        } else {
            d.kind = DecodedSub::Kind::Random;
            d.randomRange = stmt.subs[0].randomRange;
        }
        subs_.push_back(d);
        op.b = static_cast<uint32_t>(subs_.size() - 1);
        break;
      }
      case StmtKind::PtrUpdateField:
        op.kind = DecodedOpKind::PtrUpdateField;
        op.a = static_cast<uint32_t>(stmt.ptr);
        op.p0 = stmt.offset;
        break;
      case StmtKind::PtrSelectField:
        op.kind = DecodedOpKind::PtrSelectField;
        op.a = static_cast<uint32_t>(stmt.srcPtr);
        op.b = static_cast<uint32_t>(stmt.ptr);
        op.p0 = static_cast<int64_t>(choices_.size());
        op.n = static_cast<uint16_t>(stmt.offsetChoices.size());
        choices_.insert(choices_.end(), stmt.offsetChoices.begin(),
                        stmt.offsetChoices.end());
        break;
      case StmtKind::PtrUpdateConst:
        op.kind = DecodedOpKind::PtrUpdateConst;
        op.a = static_cast<uint32_t>(stmt.ptr);
        op.p0 = stmt.stride;
        break;
      case StmtKind::Compute:
        if (stmt.count == 0)
            return; // Emits nothing.
        op.kind = DecodedOpKind::ComputeRun;
        op.p0 = static_cast<int64_t>(stmt.count);
        break;
      case StmtKind::IndirectPf: {
        const ArrayDecl &index =
            prog.arrays[static_cast<size_t>(stmt.indexArray)];
        const ArrayDecl &target =
            prog.arrays[static_cast<size_t>(stmt.targetArray)];
        DecodedIndirectPf pf;
        addAffine(pf.index, stmt.indexExpr);
        pf.everyN = static_cast<int64_t>(stmt.everyN);
        pf.indexBase = index.base;
        pf.indexElemSize = index.elemSize;
        pf.indexElems = index.totalElems();
        pf.targetBase = target.base +
                        static_cast<uint64_t>(stmt.indexOffset) *
                            target.elemSize;
        pf.elem = static_cast<uint32_t>(
            stmt.scale * static_cast<int64_t>(target.elemSize));
        pf.refId = stmt.refId;
        indirects_.push_back(pf);
        op.kind = DecodedOpKind::IndirectPf;
        op.a = static_cast<uint32_t>(indirects_.size() - 1);
        break;
      }
    }
    ops_.push_back(op);
}

void
DecodedProgram::lowerLoop(const Program &prog, const Loop &loop)
{
    const size_t head = ops_.size();
    DecodedOp h;
    if (loop.kind == Loop::Kind::Counted) {
        h.kind = DecodedOpKind::LoopHeadCounted;
        h.a = static_cast<uint32_t>(loop.var);
        h.p0 = loop.lower;
        h.p1 = loop.upper;
        h.p2 = loop.step;
    } else {
        h.kind = DecodedOpKind::LoopHeadChase;
        h.a = static_cast<uint32_t>(loop.chasePtr);
        h.p0 = static_cast<int64_t>(loop.maxIter);
        h.p1 = static_cast<int64_t>(numChaseLoops_++);
    }
    ops_.push_back(h);
    lowerBody(prog, loop.body);
    DecodedOp t;
    if (loop.kind == Loop::Kind::Counted) {
        t.kind = DecodedOpKind::LoopTailCounted;
        t.a = static_cast<uint32_t>(loop.var);
        t.p1 = loop.upper;
        t.p2 = loop.step;
    } else {
        t.kind = DecodedOpKind::LoopTailChase;
        t.a = static_cast<uint32_t>(loop.chasePtr);
        t.p0 = static_cast<int64_t>(loop.maxIter);
        t.p1 = ops_[head].p1;
    }
    t.b = static_cast<uint32_t>(head + 1);
    ops_.push_back(t);
    ops_[head].b = static_cast<uint32_t>(ops_.size());
}

void
DecodedProgram::lowerBody(const Program &prog,
                          const std::vector<Node> &body)
{
    for (const Node &node : body) {
        if (node.kind == Node::Kind::Statement)
            lowerStmt(prog, node.stmt);
        else
            lowerLoop(prog, node.loop);
    }
}

DecodedProgram
DecodedProgram::lower(const Program &prog)
{
    DecodedProgram d;
    d.numVars_ = static_cast<uint32_t>(prog.nextVarId);
    d.initialPtrs_.reserve(prog.ptrs.size());
    for (const PtrDecl &ptr : prog.ptrs)
        d.initialPtrs_.push_back(ptr.initial);
    d.lowerBody(prog, prog.top);
    return d;
}

// ---------------------------------------------------------------------------
// Execution.

namespace
{

/** @p v wrapped into [0, @p m), dividing only when it is out of
 *  range: the same value as v % m for every v. */
inline uint64_t
wrap(uint64_t v, uint64_t m)
{
    return v < m ? v : v % m;
}

inline void
emitRef(TraceOp *&out, bool write, Addr addr, RefId ref)
{
    *out++ = write ? TraceOp::store(addr, ref) : TraceOp::load(addr, ref);
}

} // namespace

DecodedInterpreter::DecodedInterpreter(const DecodedProgram &prog,
                                       FunctionalMemory &mem,
                                       uint64_t seed, uint64_t passes)
    : prog_(prog),
      mem_(mem),
      maxPasses_(passes),
      rng_(seed)
{
    vars_.resize(prog_.numVars(), 0);
    ptrs_.resize(prog_.initialPtrs().size(), 0);
    chaseIters_.resize(prog_.numChaseLoops(), 0);
    startPass();
}

DecodedInterpreter::DecodedInterpreter(const Program &prog,
                                       FunctionalMemory &mem,
                                       uint64_t seed, uint64_t passes)
    : owned_(std::make_unique<DecodedProgram>(
          DecodedProgram::lower(prog))),
      prog_(*owned_),
      mem_(mem),
      maxPasses_(passes),
      rng_(seed)
{
    vars_.resize(prog_.numVars(), 0);
    ptrs_.resize(prog_.initialPtrs().size(), 0);
    chaseIters_.resize(prog_.numChaseLoops(), 0);
    startPass();
}

void
DecodedInterpreter::startPass()
{
    const std::vector<Addr> &initial = prog_.initialPtrs();
    for (size_t i = 0; i < initial.size(); ++i)
        ptrs_[i] = initial[i];
    pc_ = 0;
}

int64_t
DecodedInterpreter::evalAffine(const DecodedAffine &expr) const
{
    int64_t value = expr.constant;
    const DecodedTerm *terms = prog_.terms_.data() + expr.termBegin;
    for (uint32_t i = 0; i < expr.termCount; ++i)
        value += terms[i].coeff * vars_[terms[i].var];
    return value;
}

uint64_t
DecodedInterpreter::evalSub(const DecodedSub &sub, TraceOp *&out)
{
    int64_t value = 0;
    switch (sub.kind) {
      case DecodedSub::Kind::Affine:
        value = evalAffine(sub.expr);
        break;
      case DecodedSub::Kind::Indirect: {
        const uint64_t idx =
            wrap(static_cast<uint64_t>(evalAffine(sub.expr)),
                 sub.indexElems);
        const Addr index_addr = sub.indexBase + idx * sub.indexElemSize;
        *out++ = TraceOp::load(index_addr, sub.indexRefId);
        const uint64_t loaded = sub.indexElemSize == 4
                                    ? mem_.read32(index_addr)
                                    : mem_.read64(index_addr);
        value = sub.scale * static_cast<int64_t>(loaded) + sub.offset;
        break;
      }
      case DecodedSub::Kind::Random:
        value = static_cast<int64_t>(rng_.below(sub.randomRange));
        break;
    }
    return wrap(static_cast<uint64_t>(value), sub.extent);
}

void
DecodedInterpreter::emitCompute(TraceOp *&out)
{
    const uint64_t n = std::min<uint64_t>(
        computeLeft_, static_cast<uint64_t>(block_ + kBlockOps - out));
    std::fill_n(out, n, TraceOp::compute());
    out += n;
    computeLeft_ -= n;
}

bool
DecodedInterpreter::fillBlock()
{
    pos_ = 0;
    len_ = 0;
    if (finished_)
        return false;
    const DecodedOp *ops = prog_.ops_.data();
    const size_t op_count = prog_.ops_.size();
    const DecodedSub *subs = prog_.subs_.data();
    TraceOp *out = block_;
    // With at least kMaxStmtOps slots left, any statement fits whole.
    TraceOp *const last = block_ + kBlockOps - DecodedProgram::kMaxStmtOps;

    emitCompute(out);
    while (out <= last) {
        if (pc_ >= op_count) {
            ++passesDone_;
            if (passesDone_ < maxPasses_) {
                startPass();
                continue;
            }
            finished_ = true;
            break;
        }
        const DecodedOp &op = ops[pc_];
        switch (op.kind) {
          case DecodedOpKind::ArrayRef1A: {
            const DecodedSub &sub = subs[op.a];
            const uint64_t idx = wrap(
                static_cast<uint64_t>(evalAffine(sub.expr)), sub.extent);
            emitRef(out, op.isWrite, op.base + idx * sub.strideBytes,
                    op.refId);
            ++pc_;
            break;
          }
          case DecodedOpKind::ArrayRef: {
            Addr addr = op.base;
            for (uint16_t d = 0; d < op.n; ++d) {
                const DecodedSub &sub = subs[op.a + d];
                addr += evalSub(sub, out) * sub.strideBytes;
            }
            emitRef(out, op.isWrite, addr, op.refId);
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrLoadFromArray: {
            const DecodedSub &sub = subs[op.a];
            const Addr addr =
                op.base + evalSub(sub, out) * sub.strideBytes;
            *out++ = TraceOp::load(addr, op.refId);
            ptrs_[op.b] = mem_.read64(addr);
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrAddrOfArray: {
            const DecodedSub &sub = subs[op.a];
            ptrs_[op.b] = op.base + evalSub(sub, out) * sub.strideBytes;
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrRef: {
            const Addr base = ptrs_[op.a];
            if (base != 0) {
                emitRef(out, op.isWrite,
                        base + static_cast<uint64_t>(op.p0), op.refId);
            }
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrArrayRef: {
            const Addr base = ptrs_[op.a];
            if (base != 0) {
                const DecodedSub &sub = subs[op.b];
                const int64_t idx =
                    sub.kind == DecodedSub::Kind::Affine
                        ? evalAffine(sub.expr)
                        : static_cast<int64_t>(
                              rng_.below(sub.randomRange));
                emitRef(out, op.isWrite,
                        base + static_cast<uint64_t>(idx) *
                                   static_cast<uint64_t>(op.p0),
                        op.refId);
            }
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrUpdateField: {
            const Addr base = ptrs_[op.a];
            if (base != 0) {
                const Addr addr =
                    base + static_cast<uint64_t>(op.p0);
                *out++ = TraceOp::load(addr, op.refId);
                ptrs_[op.a] = mem_.read64(addr);
            }
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrSelectField: {
            const Addr base = ptrs_[op.a];
            if (base != 0) {
                const int64_t offset =
                    prog_.choices_[static_cast<size_t>(op.p0) +
                                   rng_.below(op.n)];
                const Addr addr =
                    base + static_cast<uint64_t>(offset);
                *out++ = TraceOp::load(addr, op.refId);
                ptrs_[op.b] = mem_.read64(addr);
            }
            ++pc_;
            break;
          }
          case DecodedOpKind::PtrUpdateConst:
            ptrs_[op.a] = static_cast<Addr>(
                static_cast<int64_t>(ptrs_[op.a]) + op.p0);
            ++pc_;
            break;
          case DecodedOpKind::ComputeRun:
            computeLeft_ = static_cast<uint64_t>(op.p0);
            emitCompute(out);
            ++pc_;
            break;
          case DecodedOpKind::IndirectPf: {
            const DecodedIndirectPf &pf = prog_.indirects_[op.a];
            const int64_t idx = evalAffine(pf.index);
            if (idx % pf.everyN == 0) {
                const Addr index_addr =
                    pf.indexBase +
                    wrap(static_cast<uint64_t>(idx), pf.indexElems) *
                        pf.indexElemSize;
                *out++ = TraceOp::indirect(pf.targetBase, pf.elem,
                                           index_addr, pf.refId);
            }
            ++pc_;
            break;
          }
          case DecodedOpKind::LoopHeadCounted: {
            const bool runs = op.p2 > 0 ? op.p0 < op.p1
                                        : op.p0 > op.p1;
            if (runs) {
                vars_[op.a] = op.p0;
                ++pc_;
            } else {
                pc_ = op.b;
            }
            break;
          }
          case DecodedOpKind::LoopTailCounted: {
            int64_t &var = vars_[op.a];
            var += op.p2;
            const bool more = op.p2 > 0 ? var < op.p1 : var > op.p1;
            pc_ = more ? op.b : pc_ + 1;
            break;
          }
          case DecodedOpKind::LoopHeadChase: {
            if (ptrs_[op.a] == 0 || op.p0 == 0) {
                pc_ = op.b;
            } else {
                chaseIters_[static_cast<size_t>(op.p1)] = 0;
                ++pc_;
            }
            break;
          }
          case DecodedOpKind::LoopTailChase: {
            uint64_t &iters = chaseIters_[static_cast<size_t>(op.p1)];
            ++iters;
            const bool more =
                ptrs_[op.a] != 0 &&
                iters < static_cast<uint64_t>(op.p0);
            pc_ = more ? op.b : pc_ + 1;
            break;
          }
        }
    }
    len_ = static_cast<size_t>(out - block_);
    return len_ != 0;
}

bool
DecodedInterpreter::next(TraceOp &op)
{
    if (pos_ == len_ && !fillBlock())
        return false;
    op = block_[pos_++];
    return true;
}

size_t
DecodedInterpreter::nextBatch(const TraceOp **ops)
{
    if (pos_ == len_ && !fillBlock())
        return 0;
    *ops = block_ + pos_;
    const size_t run = len_ - pos_;
    pos_ = len_;
    return run;
}

// ---------------------------------------------------------------------------
// Selection.

std::unique_ptr<TraceSource>
makeTraceSource(const Program &prog, FunctionalMemory &mem,
                uint64_t seed, uint64_t passes)
{
    return std::make_unique<DecodedInterpreter>(prog, mem, seed, passes);
}

} // namespace grp
