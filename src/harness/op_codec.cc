#include "harness/op_codec.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace grp
{

namespace
{

/** Fixed-width memory-op word fields (see op_codec.hh). */
constexpr unsigned kRunShift = 2;
constexpr uint64_t kMaxWordRun = (uint64_t{1} << 10) - 1;
constexpr unsigned kRefShift = 12;
constexpr uint64_t kMaxWordRef = (uint64_t{1} << 20) - 1;
constexpr unsigned kAddrShift = 32;
constexpr uint64_t kMax32 = 0xffffffff;

/** Control-word types (bits 2-3 of a kind-0 word). */
constexpr uint64_t kComputeRun = 0;
constexpr uint64_t kEscape = 1;
/** Control-word payload shift (compute-run count, escape kind). */
constexpr unsigned kControlShift = 4;
/** Escape-word bits that must be zero: 6-31. */
constexpr uint64_t kEscapeReserved = 0xffffffc0;

bool
isPlainCompute(const TraceOp &op)
{
    return op.kind == OpKind::Compute && op.refId == kInvalidRefId &&
           op.addr == 0 && op.base == 0 && op.elemSize == 0;
}

/** Whether @p op (not a plain compute op) fits the fixed-width word
 *  of its kind. */
bool
fitsWord(const TraceOp &op)
{
    if (op.kind == OpKind::Compute || op.refId > kMaxWordRef ||
        op.addr > kMax32)
        return false;
    if (op.kind == OpKind::IndirectPrefetch)
        return op.base <= kMax32;
    return op.base == 0 && op.elemSize == 0;
}

} // namespace

void
OpBlockEncoder::add(const TraceOp *ops, size_t n)
{
    panic_if(n > kOpBlockOps - ops_, "op block holds at most %zu ops",
             kOpBlockOps);
    ops_ += n;
    for (const TraceOp *op = ops; op != ops + n; ++op) {
        if (isPlainCompute(*op)) {
            ++run_;
            continue;
        }
        const uint64_t kind = static_cast<uint64_t>(op->kind);
        const bool fits = fitsWord(*op);
        if (run_ > kMaxWordRun || !fits)
            finish();
        if (fits) {
            words_.push_back(kind | run_ << kRunShift |
                             uint64_t{op->refId} << kRefShift |
                             op->addr << kAddrShift);
            if (op->kind == OpKind::IndirectPrefetch)
                words_.push_back(op->base |
                                 uint64_t{op->elemSize} << 32);
        } else {
            words_.push_back(kEscape << 2 | kind << kControlShift |
                             uint64_t{op->refId} << 32);
            words_.push_back(op->addr);
            words_.push_back(op->base);
            words_.push_back(op->elemSize);
        }
        run_ = 0;
    }
}

void
OpBlockEncoder::finish()
{
    if (run_)
        words_.push_back(kComputeRun << 2 | run_ << kControlShift);
    run_ = 0;
}

void
OpBlockEncoder::clear()
{
    words_.clear();
    run_ = 0;
    ops_ = 0;
}

const char *
decodeOpBlock(const uint64_t *words, size_t n_words, size_t n_ops,
              TraceOp *out)
{
    if (n_ops > kOpBlockOps)
        return "op count exceeds the block size";
    TraceOp *const end = out + n_ops;
    const uint64_t *const words_end = words + n_words;
    const uint64_t *w = words;
    while (w != words_end) {
        const uint64_t word = *w++;
        const uint64_t room = static_cast<uint64_t>(end - out);
        TraceOp op;
        if (const unsigned kind = word & 3) {
            const uint64_t run = (word >> kRunShift) & kMaxWordRun;
            if (run >= room)
                return "memory op and its compute run overrun the "
                       "block's op count";
            out = std::fill_n(out, run, TraceOp{});
            op.kind = static_cast<OpKind>(kind);
            op.refId = static_cast<RefId>((word >> kRefShift) &
                                          kMaxWordRef);
            op.addr = word >> kAddrShift;
            if (op.kind == OpKind::IndirectPrefetch) {
                if (w == words_end)
                    return "indirect prefetch word lacks its target "
                           "word";
                op.base = *w & kMax32;
                op.elemSize = static_cast<uint32_t>(*w >> 32);
                ++w;
            }
            *out++ = op;
            continue;
        }
        switch ((word >> 2) & 3) {
          case kComputeRun: {
            const uint64_t run = word >> kControlShift;
            if (run == 0)
                return "empty compute run";
            if (run > room)
                return "compute run overruns the block's op count";
            out = std::fill_n(out, run, TraceOp{});
            break;
          }
          case kEscape:
            if (words_end - w < 3)
                return "escape word lacks its three field words";
            if (room == 0)
                return "escaped op overruns the block's op count";
            if (word & kEscapeReserved)
                return "escape word has reserved bits set";
            if (w[2] > kMax32)
                return "escaped element size exceeds 32 bits";
            op.kind = static_cast<OpKind>((word >> kControlShift) & 3);
            op.refId = static_cast<RefId>(word >> 32);
            op.addr = w[0];
            op.base = w[1];
            op.elemSize = static_cast<uint32_t>(w[2]);
            w += 3;
            *out++ = op;
            break;
          default:
            return "unknown control word";
        }
    }
    if (out != end)
        return "block decodes to fewer ops than it declares";
    return nullptr;
}

} // namespace grp
