/**
 * @file
 * In-memory sweep replay: the shared once-per-(workload, seed,
 * policy) run context that lets a bench sweep re-drive every scheme
 * point from one recorded access stream.
 *
 * A sweep's grid typically crosses a handful of workloads with many
 * scheme/perfection points, and at bench-sized instruction windows
 * the per-job cost is dominated by setup — Workload::build populating
 * functional memory, the compiler pipeline, and interpreter-driven op
 * generation — all of which are pure functions of (workload, seed,
 * policy) and independent of the simulated hardware configuration.
 * SweepRecording computes each of them exactly once and shares the
 * results across every job in the grid:
 *
 *  - the built Program and FunctionalMemory (read-only after build:
 *    the interpreter and the prefetch engines only ever read values,
 *    so concurrent jobs can share one copy),
 *  - the hint table and static hint statistics for the recording's
 *    compiler policy,
 *  - the dynamic access stream, recorded lazily from one interpreter
 *    and replayed to every job through cursor TraceSources.
 *
 * The stream is stored as sealed blocks of the op codec
 * (harness/op_codec.hh, about 2.7 B per instruction instead of a
 * 32-byte TraceOp per op).
 * Each reader decodes one block at a time into a buffer it owns; a
 * sealed block never changes, so decoding runs outside the
 * recording's lock.
 *
 * The stream is scheme-independent (IndirectPrefetch ops are always
 * emitted; the CPU filters them by scheme), so one recording drives
 * the whole grid. Jobs pulling past the recorded end extend the
 * recording on demand under a lock; replayed results are
 * byte-identical to interpreter-driven runs at any thread count
 * because the recorded stream is deterministic.
 */

#ifndef GRP_HARNESS_REPLAY_HH
#define GRP_HARNESS_REPLAY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/hint_generator.hh"
#include "compiler/ir.hh"
#include "core/hint_table.hh"
#include "cpu/trace.hh"
#include "harness/op_codec.hh"
#include "mem/functional_memory.hh"
#include "sim/config.hh"

namespace grp
{

/** Shared workload context + recorded access stream for one
 *  (workload, seed, l2 size) sweep key. The op stream is also
 *  compiler-policy-independent — only the policy-blind IR transform
 *  (HintGenerator::transform) writes the Program — so one recording
 *  drives a policy sweep too; per-policy hint tables build lazily on
 *  the side. Thread-safe: any number of sweep jobs may read
 *  concurrently. */
class SweepRecording
{
  public:
    /**
     * Declare the recording's key. Construction is cheap: the
     * workload build, compiler pipeline and interpreter are created
     * lazily by the first accessor, so recordings can be handed out
     * while a bench queues jobs and the (one-time) setup cost lands
     * on whichever worker thread first needs it.
     *
     * @param l2_bytes L2 capacity the compiler pipeline targets; part
     *        of the key because reuse-distance analysis depends on it.
     */
    SweepRecording(std::string workload, uint64_t seed,
                   uint64_t l2_bytes);

    SweepRecording(const SweepRecording &) = delete;
    SweepRecording &operator=(const SweepRecording &) = delete;

    const std::string &workload() const { return workload_; }
    uint64_t seed() const { return seed_; }
    uint64_t l2Bytes() const { return l2Bytes_; }

    /** The shared functional memory (builds on first use). Read-only
     *  by contract: nothing writes functional memory after
     *  Workload::build, which is what makes sharing sound. */
    FunctionalMemory &memory();

    /** Hint table for @p policy (builds on first use; cached per
     *  policy so a policy sweep pays each analysis once). */
    const HintTable &hints(CompilerPolicy policy);

    /** Static compiler statistics for @p policy (Table 3 row; builds
     *  with the table on first use). */
    const HintStats &hintStats(CompilerPolicy policy);

    /**
     * A cursor over the recorded stream, replaying its instructions
     * from the beginning. Each job gets its own reader, which decodes
     * one block at a time into a buffer it owns; readers share the
     * recording through @p self and extend it on demand when they
     * pull past the recorded end.
     */
    static std::unique_ptr<TraceSource>
    makeReader(std::shared_ptr<SweepRecording> self);

    /**
     * Decode block @p index of the stream (instructions
     * [index * kOpBlockOps, ...)) into @p out, which holds
     * kOpBlockOps ops, generating more from the interpreter if the
     * recording is shorter. Returns the number of ops written, one
     * per encoded compute run (cpu/trace.hh), 0 past the end of the
     * stream. Every block but the stream's last holds kOpBlockOps
     * instructions. Generation runs under the recording's lock and
     * is paid once across all readers; the decode runs outside it.
     */
    size_t readBlock(uint64_t index, TraceOp *out);

    /**
     * A read-only span of the recorded stream starting at absolute
     * instruction position @p begin, generating more if the
     * recording is shorter. Sets @p *ops to the ops that hold the
     * instructions from @p begin to the end of its block (a run that
     * starts before @p begin is cut to its rest) and returns how many
     * instructions they hold, not how many ops (0 only at end of
     * stream). The span points into a buffer of the calling thread:
     * it is valid only until the calling thread's next fetchSpan()
     * call. (Exposed for tests and for callers that pre-extend a
     * recording.)
     */
    size_t fetchSpan(uint64_t begin, const TraceOp **ops);

    /** Instructions recorded so far (monotone; for
     *  tests/telemetry). */
    uint64_t opsRecorded() const;

    /** Encoded bytes of the instructions recorded so far: the memory
     *  the stream itself holds (monotone; for tests/telemetry). */
    uint64_t bytesRecorded() const;

  private:
    void ensureBuilt();

    /** One policy's lazily built analysis products. */
    struct PolicyHints
    {
        HintTable table;
        HintStats stats;
        std::once_flag once;
    };
    PolicyHints &policyHints(CompilerPolicy policy);

    const std::string workload_;
    const uint64_t seed_;
    const uint64_t l2Bytes_;

    std::once_flag buildOnce_;
    FunctionalMemory fmem_;
    /** The transformed program: the per-policy analyses in
     *  policyHints() read it after the build. */
    std::optional<Program> prog_;
    /** HintGenerator::transform's indirect count (feeds every
     *  policy's stats row). */
    unsigned indirect_ = 0;
    /** Per-policy hint tables, built on first request. Guarded by
     *  hintsMu_ for the map itself; each entry's once flag serializes
     *  its build. Entries are stable (std::map) so returned
     *  references outlive later insertions. */
    std::map<int, PolicyHints> hintsByPolicy_;
    std::mutex hintsMu_;
    std::unique_ptr<TraceSource> source_;

    /** One sealed block of the recorded stream, immutable once
     *  pushed: readers copy its word pointer under mu_ and decode
     *  outside it (growing blocks_ moves the vectors, never their
     *  word buffers). */
    struct Block
    {
        std::vector<uint64_t> words;
        size_t instructions = 0;
    };

    /** Encode the next block from source_ and seal it (mu_ held). */
    void recordBlock();

    mutable std::mutex mu_;
    std::vector<Block> blocks_; ///< Sealed blocks (guarded by mu_).
    /** Encodes each block in turn, keeping its grown word buffer
     *  (guarded by mu_). */
    OpBlockEncoder open_;
    uint64_t recorded_ = 0;     ///< Instructions in sealed blocks (mu_).
    uint64_t bytes_ = 0;        ///< Their word bytes (mu_).
    bool exhausted_ = false;    ///< source_ returned end-of-trace.
    /** Leftover interpreter batch carried across recordBlock calls. */
    const TraceOp *gen_ = nullptr;
    size_t genPos_ = 0;
    size_t genLen_ = 0;
};

} // namespace grp

#endif // GRP_HARNESS_REPLAY_HH
