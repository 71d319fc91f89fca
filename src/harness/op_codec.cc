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

/** A compute op whose every field but the count is at its default:
 *  its instructions go into the word run counts. */
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
OpBlockEncoder::pushEscape(const TraceOp &op)
{
    words_.push_back(kEscape << 2 |
                     static_cast<uint64_t>(op.kind) << kControlShift |
                     uint64_t{op.refId} << 32);
    words_.push_back(op.addr);
    words_.push_back(op.base);
    words_.push_back(op.elemSize);
}

size_t
OpBlockEncoder::add(const TraceOp *ops, size_t n)
{
    size_t taken = 0;
    while (taken < n && insts_ < kOpBlockOps) {
        const TraceOp &op = ops[taken++];
        if (op.kind == OpKind::Compute) {
            panic_if(op.count == 0, "compute op of count 0");
            const uint32_t fit = static_cast<uint32_t>(
                std::min<size_t>(op.count, kOpBlockOps - insts_));
            insts_ += fit;
            if (fit < op.count) {
                carry_ = op;
                carry_.count -= fit;
            }
            if (isPlainCompute(op)) {
                run_ += fit;
                continue;
            }
            finish();
            for (uint32_t i = 0; i < fit; ++i)
                pushEscape(op);
            continue;
        }
        ++insts_;
        const bool fits = fitsWord(op);
        if (run_ > kMaxWordRun || !fits)
            finish();
        if (fits) {
            words_.push_back(static_cast<uint64_t>(op.kind) |
                             run_ << kRunShift |
                             uint64_t{op.refId} << kRefShift |
                             op.addr << kAddrShift);
            if (op.kind == OpKind::IndirectPrefetch)
                words_.push_back(op.base | uint64_t{op.elemSize} << 32);
        } else {
            pushEscape(op);
        }
        run_ = 0;
    }
    return taken;
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
    insts_ = 0;
    if (carry_.count != 0) {
        const TraceOp rest = carry_;
        carry_.count = 0;
        add(&rest, 1);
    }
}

const char *
decodeOpBlock(const uint64_t *words, size_t n_words, size_t n_insts,
              TraceOp *out, size_t &n_ops)
{
    if (n_insts > kOpBlockOps)
        return "instruction count exceeds the block size";
    // Every op written takes at least one instruction of room, so at
    // most n_insts ops are written.
    TraceOp *const first = out;
    uint64_t room = n_insts;
    const uint64_t *const words_end = words + n_words;
    const uint64_t *w = words;
    while (w != words_end) {
        const uint64_t word = *w++;
        TraceOp op;
        if (const unsigned kind = word & 3) {
            const uint64_t run = (word >> kRunShift) & kMaxWordRun;
            if (run >= room)
                return "memory op and its compute run overrun the "
                       "block's instruction count";
            if (run)
                *out++ = TraceOp::compute(static_cast<uint32_t>(run));
            room -= run + 1;
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
                return "compute run overruns the block's instruction "
                       "count";
            *out++ = TraceOp::compute(static_cast<uint32_t>(run));
            room -= run;
            break;
          }
          case kEscape:
            if (words_end - w < 3)
                return "escape word lacks its three field words";
            if (room == 0)
                return "escaped op overruns the block's instruction "
                       "count";
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
            --room;
            break;
          default:
            return "unknown control word";
        }
    }
    if (room != 0)
        return "block decodes to fewer instructions than it declares";
    n_ops = static_cast<size_t>(out - first);
    return nullptr;
}

} // namespace grp
