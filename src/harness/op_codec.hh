/**
 * @file
 * The compact encoding in which the in-memory sweep recording
 * (harness/replay) holds the CPU's dynamic op stream.
 *
 * A block of at most kOpBlockOps TraceOps packs into 64-bit words.
 * Compute ops are never stored one by one: each memory op's word
 * counts the plain compute ops before it. On the Table 1 kernels two
 * ops in three are compute ops, in runs of about two, so one word
 * covers about three ops (about 2.7 B/op against sizeof(TraceOp) =
 * 32). Word layouts, by the kind in bits 0-1:
 *
 *   kind 1/2/3  Load / Store / IndirectPrefetch, fixed width:
 *                 bits  2-11  compute ops before this op (0-1023)
 *                 bits 12-31  RefId (below 2^20)
 *                 bits 32-63  address
 *               an IndirectPrefetch adds one word: target base in
 *               bits 0-31, element size in bits 32-63
 *   kind 0      control word, by bits 2-3:
 *     0  compute run: bits 4-63 count plain compute ops (a run too
 *        long for a memory op's field, or the block's compute tail)
 *     1  escape: bits 4-5 the op kind, bits 32-63 the RefId (bits
 *        6-31 zero), then three words: address, base, element size.
 *        It carries every op the fixed-width word cannot: a RefId of
 *        2^20 or more (kInvalidRefId on indirect prefetches), an
 *        address or base of 2^32 or more, a compute op with a field
 *        off its default, a load or store with a base or size set.
 *
 * The encoding is lossless for every TraceOp. The decoder checks
 * every word against the block's bounds and its declared op count,
 * so a corrupt block is reported, never misdecoded past the end of a
 * buffer.
 */

#ifndef GRP_HARNESS_OP_CODEC_HH
#define GRP_HARNESS_OP_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/trace.hh"

namespace grp
{

/** Ops per block (a stream's last block may hold fewer). Every
 *  decode target must hold this many ops. */
constexpr size_t kOpBlockOps = 4096;

/** Packs consecutive ops into one block's words. */
class OpBlockEncoder
{
  public:
    /** Append @p n ops; the block holds at most kOpBlockOps. */
    void add(const TraceOp *ops, size_t n);

    /** Ops appended since the last clear(). */
    size_t ops() const { return ops_; }
    bool full() const { return ops_ == kOpBlockOps; }

    /** Flush the pending compute run into a word: words() is then
     *  the complete block. */
    void finish();

    /** The block's words (complete after finish()). */
    const std::vector<uint64_t> &words() const { return words_; }

    /** Start the next block (keeps the word buffer's capacity). */
    void clear();

  private:
    std::vector<uint64_t> words_;
    uint64_t run_ = 0; ///< Plain compute ops not yet in a word.
    size_t ops_ = 0;
};

/**
 * Decode one block of @p n_words words that declares @p n_ops ops
 * into @p out, which holds kOpBlockOps ops. Returns nullptr when the
 * words decode to exactly @p n_ops ops, else a description of the
 * first malformed word (an over-long run, a truncated escape, an
 * unknown control word, a word count or op count that disagrees).
 */
const char *decodeOpBlock(const uint64_t *words, size_t n_words,
                          size_t n_ops, TraceOp *out);

} // namespace grp

#endif // GRP_HARNESS_OP_CODEC_HH
