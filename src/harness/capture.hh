/**
 * @file
 * Recording and replaying the CPU's dynamic access stream.
 *
 * CaptureTraceSource tees the ops an inner TraceSource (normally the
 * IR interpreter) produces into a kind-1 (Access) .grpbin container,
 * one `opBlock` record per block of the op codec
 * (harness/op_codec.hh) — the same packed words the in-memory sweep
 * recording holds, about 2.7 B/op, with compute ops folded into the
 * memory op that follows them. obs/bintrace.hh gives the record
 * layout. The container's meta block pins the (workload, seed) pair
 * the stream came from.
 *
 * ReplayTraceSource is the inverse: it re-drives the simulated memory
 * system from a recorded stream instead of the interpreter. Because
 * the interpreter never writes functional memory during execution
 * (Workload::build populates it up front), a replay against the same
 * (workload, seed) reproduces the live run's mem.* counters exactly —
 * and the stream is scheme-independent (IndirectPrefetch ops are
 * always recorded; the CPU filters them by scheme), so one capture
 * can drive sweeps across prefetch configurations. A capture file
 * comes from outside the program, so replay checks every record
 * length and word as it decodes; a malformed capture ends in fatal()
 * with a diagnosis.
 */

#ifndef GRP_HARNESS_CAPTURE_HH
#define GRP_HARNESS_CAPTURE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "harness/op_codec.hh"
#include "obs/bintrace.hh"

namespace grp
{

/** Tees a TraceSource into a .grpbin access capture. */
class CaptureTraceSource : public TraceSource
{
  public:
    /**
     * Capture @p inner's stream to @p path (written as "<path>.tmp",
     * published by rename when the capture closes — a killed run
     * leaves only the .tmp behind). @p workload and @p seed go into
     * the container meta so replay can refuse mismatched configs.
     * Failure to open the file is fatal: a silently dropped capture
     * is worse than a stopped run.
     */
    CaptureTraceSource(TraceSource &inner, const std::string &path,
                       const std::string &workload, uint64_t seed);
    ~CaptureTraceSource() override;

    CaptureTraceSource(const CaptureTraceSource &) = delete;
    CaptureTraceSource &operator=(const CaptureTraceSource &) = delete;

    bool next(TraceOp &op) override;
    size_t nextBatch(const TraceOp **ops) override;

    /** Write the last block, finalize and publish the capture (also
     *  runs on destruction). No ops may be pulled afterwards. */
    void close();

    /** Ops pulled through the tee (whole batches: the consumer may
     *  stop part-way through the last one). */
    uint64_t opsCaptured() const { return ops_; }

  private:
    /** Encode @p n ops, writing each block as it fills. */
    void append(const TraceOp *ops, size_t n);
    /** Write the open block as one opBlock record. */
    void writeBlock();

    TraceSource &inner_;
    std::string publishPath_;
    std::FILE *out_ = nullptr;
    std::unique_ptr<char[]> iobuf_;
    std::unique_ptr<obs::bintrace::Writer> writer_;
    OpBlockEncoder block_;
    std::vector<uint8_t> payload_; ///< The open block's record bytes.
    uint64_t ops_ = 0; ///< Ops seen (the stream's position key).
};

/** Replays a recorded .grpbin access capture as a TraceSource. */
class ReplayTraceSource : public BlockTraceSource
{
  public:
    /** Loads and validates @p path. Fatal when the file is missing,
     *  not an access capture, in another record format, or truncated
     *  (unfinalized): replaying a damaged stream would silently
     *  produce wrong statistics. */
    explicit ReplayTraceSource(const std::string &path);

    /** The capture's recorded workload name / RNG seed. */
    const std::string &workload() const { return workload_; }
    uint64_t seed() const { return seed_; }

    /** Total ops in the capture (from the finalize footer). */
    uint64_t totalOps() const { return totalOps_; }

  protected:
    /** Decode the next opBlock record; fatal when it is malformed,
     *  or when the body ends short of the footer's op count. */
    size_t decodeNext(TraceOp *out) override;

  private:
    std::string path_;
    std::string data_;
    const uint8_t *cursor_ = nullptr;
    const uint8_t *end_ = nullptr;
    std::vector<uint64_t> words_; ///< The current record's words.
    uint64_t decoded_ = 0; ///< Ops decoded so far (error reporting).
    std::string workload_;
    uint64_t seed_ = 0;
    uint64_t totalOps_ = 0;
};

} // namespace grp

#endif // GRP_HARNESS_CAPTURE_HH
