/**
 * @file
 * The compact encoding in which the in-memory sweep recording
 * (harness/replay) holds the CPU's dynamic op stream.
 *
 * A block of at most kOpBlockOps instructions packs into 64-bit
 * words. Compute instructions are never stored one by one: each
 * memory op's word counts the plain compute instructions before it.
 * On the Table 1 kernels two instructions in three are compute, in
 * runs of about two, so one word covers about three instructions
 * (about 2.7 B/instruction against sizeof(TraceOp) = 32). Word
 * layouts, by the kind in bits 0-1:
 *
 *   kind 1/2/3  Load / Store / IndirectPrefetch, fixed width:
 *                 bits  2-11  compute instructions before this op
 *                             (0-1023)
 *                 bits 12-31  RefId (below 2^20)
 *                 bits 32-63  address
 *               an IndirectPrefetch adds one word: target base in
 *               bits 0-31, element size in bits 32-63
 *   kind 0      control word, by bits 2-3:
 *     0  compute run: bits 4-63 count plain compute instructions (a
 *        run too long for a memory op's field, or the block's
 *        compute tail)
 *     1  escape: bits 4-5 the op kind, bits 32-63 the RefId (bits
 *        6-31 zero), then three words: address, base, element size.
 *        It carries every op the fixed-width word cannot: a RefId of
 *        2^20 or more (kInvalidRefId on indirect prefetches), an
 *        address or base of 2^32 or more, a compute instruction with
 *        a field off its default (one escape per instruction), a
 *        load or store with a base or size set.
 *
 * Ops carry counted compute runs (cpu/trace.hh). The encoder adds
 * each run's count to the pending run, so where the source split or
 * merged its runs does not change the words; it splits a run only
 * where a block's kOpBlockOps instructions end. The decoder emits
 * one compute op per encoded run. The encoding is lossless for every
 * instruction stream. The decoder checks every word against the
 * block's bounds and its declared instruction count, so a corrupt
 * block is reported, never misdecoded past the end of a buffer.
 */

#ifndef GRP_HARNESS_OP_CODEC_HH
#define GRP_HARNESS_OP_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/trace.hh"

namespace grp
{

/** Instructions per block (a stream's last block may hold fewer).
 *  A block decodes to at most this many ops, so every decode target
 *  holds this many. */
constexpr size_t kOpBlockOps = 4096;

/** Packs consecutive ops into one block's words. */
class OpBlockEncoder
{
  public:
    /**
     * Append ops from @p ops until the block holds kOpBlockOps
     * instructions; returns how many of the @p n ops it took. A
     * compute run that does not fit is taken whole: the part that
     * fits ends this block and clear() opens the next block with the
     * rest. Panics on a compute op of count 0.
     */
    size_t add(const TraceOp *ops, size_t n);

    /** Instructions in the block since the last clear(). */
    size_t instructions() const { return insts_; }
    bool full() const { return insts_ == kOpBlockOps; }

    /** Flush the pending compute run into a word: words() is then
     *  the complete block. */
    void finish();

    /** The block's words (complete after finish()). */
    const std::vector<uint64_t> &words() const { return words_; }

    /** Start the next block with the rest of a run the last one
     *  split, if any (keeps the word buffer's capacity). */
    void clear();

  private:
    /** Append @p op as an escape record (four words). */
    void pushEscape(const TraceOp &op);

    std::vector<uint64_t> words_;
    uint64_t run_ = 0;   ///< Plain compute instructions not in a word.
    /** The rest of a run this block split (count 0: none). */
    TraceOp carry_ = TraceOp::compute(0);
    size_t insts_ = 0;
};

/**
 * Decode one block of @p n_words words that declares @p n_insts
 * instructions into @p out, which holds kOpBlockOps ops: one op per
 * memory op and one compute op per encoded run. Returns nullptr and
 * sets @p n_ops to the ops written when the words decode to exactly
 * @p n_insts instructions, else a description of the first
 * malformed word (an over-long run, a truncated escape, an unknown
 * control word, a word count or instruction count that disagrees).
 */
const char *decodeOpBlock(const uint64_t *words, size_t n_words,
                          size_t n_insts, TraceOp *out, size_t &n_ops);

} // namespace grp

#endif // GRP_HARNESS_OP_CODEC_HH
