#include "prefetch/stride.hh"

#include "mem/dram.hh"

#include <cstdlib>

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

StridePrefetcher::StridePrefetcher(const SimConfig &config,
                                   obs::StatRegistry &registry)
    : config_(config),
      sets_(config.stride.tableEntries / config.stride.tableAssoc),
      stats_("stride"),
      statReg_(stats_, registry)
{
    table_.resize(config.stride.tableEntries);
    streams_.resize(config.stride.streamBuffers);
    streamsAllocated_ = &stats_.counter("streamsAllocated");
    pageBoundaryStops_ = &stats_.counter("pageBoundaryStops");
    candidatesOffered_ = &stats_.counter("candidatesOffered");
}

StridePrefetcher::TableEntry *
StridePrefetcher::lookup(RefId ref)
{
    const unsigned set = ref % sets_;
    TableEntry *base = &table_[set * config_.stride.tableAssoc];
    for (unsigned way = 0; way < config_.stride.tableAssoc; ++way) {
        if (base[way].valid && base[way].tag == ref)
            return &base[way];
    }
    return nullptr;
}

StridePrefetcher::TableEntry &
StridePrefetcher::allocate(RefId ref)
{
    const unsigned set = ref % sets_;
    TableEntry *base = &table_[set * config_.stride.tableAssoc];
    TableEntry *victim = base;
    for (unsigned way = 0; way < config_.stride.tableAssoc; ++way) {
        if (!base[way].valid) {
            victim = &base[way];
            break;
        }
        if (base[way].lruStamp < victim->lruStamp)
            victim = &base[way];
    }
    *victim = TableEntry{};
    victim->valid = true;
    victim->tag = ref;
    return *victim;
}

void
StridePrefetcher::allocateStream(RefId ref, Addr addr,
                                 int64_t stride_bytes)
{
    // Convert to a block-granularity stride, keeping the direction.
    int64_t stride_blocks = stride_bytes / int64_t(kBlockBytes);
    if (stride_blocks == 0)
        stride_blocks = stride_bytes > 0 ? 1 : -1;

    // Already streaming for this PC? Keep it alive, and re-anchor
    // ahead of the demand if it has fallen behind (a stream that
    // trails the misses prefetches blocks that already missed).
    for (Stream &stream : streams_) {
        if (stream.valid && stream.ref == ref) {
            stream.lruStamp = nextStamp_++;
            stream.credits = config_.stride.bufferEntries;
            const int64_t ahead =
                (static_cast<int64_t>(stream.nextAddr) -
                 static_cast<int64_t>(blockAlign(addr))) *
                (stride_blocks > 0 ? 1 : -1);
            if (ahead <= 0)
                anchorStream(stream, addr, stride_blocks);
            return;
        }
    }

    Stream *victim = &streams_[0];
    for (Stream &stream : streams_) {
        if (!stream.valid) {
            victim = &stream;
            break;
        }
        if (stream.lruStamp < victim->lruStamp)
            victim = &stream;
    }
    victim->valid = true;
    victim->ref = ref;
    victim->strideBlocks = stride_blocks;
    victim->credits = config_.stride.bufferEntries;
    victim->lruStamp = nextStamp_++;
    anchorStream(*victim, addr, stride_blocks);
    if (victim->valid)
        ++*streamsAllocated_;
}

void
StridePrefetcher::anchorStream(Stream &stream, Addr addr,
                               int64_t stride_blocks)
{
    const Addr next = blockAlign(
        static_cast<Addr>(static_cast<int64_t>(blockAlign(addr)) +
                          stride_blocks * int64_t(kBlockBytes)));
    // A short-stride stream may not be armed across a 4 KB page
    // boundary (see dequeuePrefetch).
    const int64_t stride_bytes =
        stride_blocks * int64_t(kBlockBytes);
    const bool short_stride =
        stride_bytes < int64_t(kRegionBytes) &&
        stride_bytes > -int64_t(kRegionBytes);
    if (short_stride && regionAlign(next) != regionAlign(addr)) {
        stream.valid = false;
        ++*pageBoundaryStops_;
        return;
    }
    stream.nextAddr = next;
}

void
StridePrefetcher::onL2DemandAccess(Addr addr, RefId ref,
                                   const LoadHints &, bool hit)
{
    GRP_HOST_SCOPE(2, EngineNotify);
    if (ref == kInvalidRefId)
        return;

    TableEntry *entry = lookup(ref);
    if (!entry) {
        entry = &allocate(ref);
        entry->lastAddr = addr;
        entry->lruStamp = nextStamp_++;
        return;
    }
    entry->lruStamp = nextStamp_++;

    const int64_t observed = static_cast<int64_t>(addr) -
                             static_cast<int64_t>(entry->lastAddr);
    if (observed == 0)
        return;
    if (observed == entry->stride) {
        if (entry->confidence < StrideConfig::kMaxConfidence)
            ++entry->confidence;
    } else {
        entry->stride = observed;
        entry->confidence = 0;
    }
    entry->lastAddr = addr;

    // Confident strided loads keep a stream running; the stream is
    // (re)armed on misses, the moment prefetching can actually help.
    if (!hit && entry->confidence >= config_.stride.trainThreshold) {
        allocateStream(ref, addr, entry->stride);
        return;
    }

    // Demand consumption replenishes the lookahead credit, but a
    // stream never runs more than bufferEntries strides ahead of the
    // demand stream — the fixed depth of a real stream buffer.
    for (Stream &stream : streams_) {
        if (!stream.valid || stream.ref != ref)
            continue;
        stream.lruStamp = nextStamp_++;
        const int64_t stride_bytes =
            stream.strideBlocks * int64_t(kBlockBytes);
        const int64_t ahead_bytes =
            static_cast<int64_t>(stream.nextAddr) -
            static_cast<int64_t>(blockAlign(addr));
        const int64_t steps_ahead =
            stride_bytes != 0 ? ahead_bytes / stride_bytes : 0;
        const int64_t buffer =
            static_cast<int64_t>(config_.stride.bufferEntries);
        if (steps_ahead <= 0 || steps_ahead > buffer + 1) {
            // Fell behind or ran away: re-anchor at the demand.
            anchorStream(stream, addr, stream.strideBlocks);
            stream.credits = config_.stride.bufferEntries;
        } else {
            // nextAddr is the next block to issue, so the stream is
            // steps_ahead - 1 issued blocks ahead of this demand.
            stream.credits = static_cast<unsigned>(
                buffer - (steps_ahead - 1));
        }
        break;
    }
}

std::optional<PrefetchCandidate>
StridePrefetcher::dequeuePrefetch(const DramBackend &dram,
                                  unsigned channel)
{
    GRP_HOST_SCOPE(2, EngineDequeue);
    const unsigned count = static_cast<unsigned>(streams_.size());
    for (unsigned i = 0; i < count; ++i) {
        Stream &stream = streams_[(rrCursor_ + i) % count];
        if (!stream.valid || stream.credits == 0)
            continue;
        if (dram.channelOf(stream.nextAddr) != channel)
            continue;
        PrefetchCandidate candidate;
        candidate.blockAddr = stream.nextAddr;
        candidate.refId = stream.ref;
        candidate.ptrDepth = 0;
        candidate.hintClass = obs::HintClass::Stride;
        const Addr next = static_cast<Addr>(
            static_cast<int64_t>(stream.nextAddr) +
            stream.strideBlocks * int64_t(kBlockBytes));
        // Short-stride streams are stopped at 4 KB page boundaries
        // (the classic stream-buffer constraint: the next physical
        // page is unknown); the next miss re-arms the stream.
        // Streams whose stride exceeds a page jump pages anyway.
        const bool short_stride =
            stream.strideBlocks * int64_t(kBlockBytes) <
                int64_t(kRegionBytes) &&
            stream.strideBlocks * int64_t(kBlockBytes) >
                -int64_t(kRegionBytes);
        if (short_stride &&
            regionAlign(next) != regionAlign(stream.nextAddr)) {
            stream.valid = false;
            ++*pageBoundaryStops_;
        } else {
            stream.nextAddr = next;
            --stream.credits;
        }
        rrCursor_ = (rrCursor_ + i + 1) % count;
        ++*candidatesOffered_;
        return candidate;
    }
    return std::nullopt;
}

int64_t
StridePrefetcher::strideFor(RefId ref) const
{
    const TableEntry *entry =
        const_cast<StridePrefetcher *>(this)->lookup(ref);
    return entry ? entry->stride : 0;
}

size_t
StridePrefetcher::queueDepth() const
{
    size_t ready = 0;
    for (const Stream &stream : streams_) {
        if (stream.valid && stream.credits > 0)
            ++ready;
    }
    return ready;
}

unsigned
StridePrefetcher::liveStreams() const
{
    unsigned live = 0;
    for (const Stream &stream : streams_) {
        if (stream.valid)
            ++live;
    }
    return live;
}

void
StridePrefetcher::reset()
{
    for (TableEntry &entry : table_)
        entry = TableEntry{};
    for (Stream &stream : streams_)
        stream = Stream{};
    nextStamp_ = 1;
    rrCursor_ = 0;
    stats_.reset();
}

} // namespace grp
