/**
 * @file
 * Reads an op stream as the instructions it stands for: a compute op
 * of count n (cpu/trace.hh) becomes n one-instruction compute ops, so
 * tests can compare and hash streams instruction by instruction,
 * wherever their sources split or merged compute runs.
 */

#ifndef GRP_TESTS_OP_STREAM_HH
#define GRP_TESTS_OP_STREAM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/trace.hh"

namespace grp
{

/** Append the instructions of ops [@p ops, @p ops + @p n) to @p out,
 *  one op each, until @p out holds @p limit. */
inline void
appendInstructions(std::vector<TraceOp> &out, const TraceOp *ops,
                   size_t n, size_t limit = ~size_t{0})
{
    for (size_t i = 0; i < n && out.size() < limit; ++i) {
        TraceOp one = ops[i];
        const size_t copies =
            one.kind == OpKind::Compute
                ? std::min<size_t>(one.count, limit - out.size())
                : 1;
        one.count = 1;
        out.insert(out.end(), copies, one);
    }
}

/** The first @p limit instructions of @p source, one next() call per
 *  op. */
inline std::vector<TraceOp>
instructionsOf(TraceSource &source, size_t limit = ~size_t{0})
{
    std::vector<TraceOp> out;
    TraceOp op;
    while (out.size() < limit && source.next(op))
        appendInstructions(out, &op, 1, limit);
    return out;
}

} // namespace grp

#endif // GRP_TESTS_OP_STREAM_HH
