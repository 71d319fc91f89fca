#include "harness/replay.hh"

#include "sim/logging.hh"
#include "workloads/predecode.hh"
#include "workloads/workload.hh"

namespace grp
{

namespace
{

/** A per-job cursor over a shared recording: decodes one block at a
 *  time into its own buffer, so readers never share decoded ops and
 *  take the recording's lock once per block. */
class RecordingReader final : public TraceSource
{
  public:
    explicit RecordingReader(std::shared_ptr<SweepRecording> rec)
        : rec_(std::move(rec))
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (pos_ == len_ && !refill())
            return false;
        op = buf_[pos_++];
        return true;
    }

    size_t
    nextBatch(const TraceOp **ops) override
    {
        if (pos_ == len_ && !refill())
            return 0;
        *ops = buf_.get() + pos_;
        const size_t run = len_ - pos_;
        pos_ = len_;
        return run;
    }

  private:
    /** Decode the next block into buf_; false at the end of the
     *  stream. */
    bool
    refill()
    {
        len_ = rec_->readBlock(block_++, buf_.get());
        pos_ = 0;
        return len_ != 0;
    }

    std::shared_ptr<SweepRecording> rec_;
    uint64_t block_ = 0; ///< Index of the next block to decode.
    std::unique_ptr<TraceOp[]> buf_ =
        std::make_unique<TraceOp[]>(kOpBlockOps);
    size_t pos_ = 0;
    size_t len_ = 0;
};

} // namespace

SweepRecording::SweepRecording(std::string workload, uint64_t seed,
                               uint64_t l2_bytes)
    : workload_(std::move(workload)), seed_(seed), l2Bytes_(l2_bytes)
{
}

void
SweepRecording::ensureBuilt()
{
    std::call_once(buildOnce_, [this] {
        prog_.emplace(makeWorkload(workload_)->build(fmem_, seed_));
        // Only the policy-independent IR transform runs here; the
        // per-policy analyses build lazily in policyHints(), so the
        // program — and the op stream interpreted from it — is
        // shared by every policy in the sweep.
        indirect_ = HintGenerator::transform(*prog_);
        source_ = makeTraceSource(*prog_, fmem_, seed_);
    });
}

SweepRecording::PolicyHints &
SweepRecording::policyHints(CompilerPolicy policy)
{
    ensureBuilt();
    PolicyHints *entry;
    {
        std::lock_guard<std::mutex> lock(hintsMu_);
        entry = &hintsByPolicy_[static_cast<int>(policy)];
    }
    std::call_once(entry->once, [this, entry, policy] {
        HintGenerator generator(policy, l2Bytes_);
        entry->stats =
            generator.analyze(*prog_, entry->table, indirect_);
    });
    return *entry;
}

FunctionalMemory &
SweepRecording::memory()
{
    ensureBuilt();
    return fmem_;
}

const HintTable &
SweepRecording::hints(CompilerPolicy policy)
{
    return policyHints(policy).table;
}

const HintStats &
SweepRecording::hintStats(CompilerPolicy policy)
{
    return policyHints(policy).stats;
}

std::unique_ptr<TraceSource>
SweepRecording::makeReader(std::shared_ptr<SweepRecording> self)
{
    return std::make_unique<RecordingReader>(std::move(self));
}

void
SweepRecording::recordBlock()
{
    while (!open_.full()) {
        if (genPos_ == genLen_) {
            genLen_ = source_->nextBatch(&gen_);
            genPos_ = 0;
            if (genLen_ == 0) {
                exhausted_ = true;
                break;
            }
        }
        genPos_ += open_.add(gen_ + genPos_, genLen_ - genPos_);
    }
    if (open_.instructions() == 0)
        return;
    open_.finish();
    // Copy at the exact size: the encoder keeps its grown buffer.
    blocks_.push_back({open_.words(), open_.instructions()});
    recorded_ += open_.instructions();
    bytes_ += open_.words().size() * sizeof(uint64_t);
    open_.clear();
}

size_t
SweepRecording::readBlock(uint64_t index, TraceOp *out)
{
    ensureBuilt();
    const uint64_t *words = nullptr;
    size_t n_words = 0;
    size_t n_insts = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Whoever asks first generates for everyone.
        while (blocks_.size() <= index && !exhausted_)
            recordBlock();
        if (index >= blocks_.size())
            return 0;
        const Block &block = blocks_[index];
        words = block.words.data();
        n_words = block.words.size();
        n_insts = block.instructions;
    }
    size_t n_ops = 0;
    const char *error =
        decodeOpBlock(words, n_words, n_insts, out, n_ops);
    panic_if(error, "recorded block %llu of '%s' is corrupt: %s",
             (unsigned long long)index, workload_.c_str(), error);
    return n_ops;
}

size_t
SweepRecording::fetchSpan(uint64_t begin, const TraceOp **ops)
{
    thread_local const std::unique_ptr<TraceOp[]> buf =
        std::make_unique<TraceOp[]>(kOpBlockOps);
    TraceOp *op = buf.get();
    TraceOp *const end = op + readBlock(begin / kOpBlockOps, op);
    // Skip to the op that holds instruction begin; a run that starts
    // before it keeps only its rest.
    uint64_t skip = begin % kOpBlockOps;
    for (; op != end && skip >= op->count; ++op)
        skip -= op->count;
    if (op == end)
        return 0;
    op->count -= static_cast<uint32_t>(skip);
    *ops = op;
    size_t n = 0;
    for (const TraceOp *o = op; o != end; ++o)
        n += o->count;
    return n;
}

uint64_t
SweepRecording::opsRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
}

uint64_t
SweepRecording::bytesRecorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

} // namespace grp
