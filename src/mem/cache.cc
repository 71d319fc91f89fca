#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace grp
{

Cache::Cache(const CacheConfig &config, const std::string &name,
             bool lru_insertion, obs::StatRegistry &registry)
    : config_(config),
      numSets_(static_cast<unsigned>(config.sizeBytes /
                                     (config.assoc * kBlockBytes))),
      setShift_(floorLog2(numSets_)),
      assoc_(config.assoc),
      lruInsertion_(lru_insertion),
      stats_(name),
      statReg_(stats_, registry)
{
    fatal_if(numSets_ == 0 || !isPowerOfTwo(numSets_),
             "cache set count must be a non-zero power of two");
    lines_.resize(static_cast<size_t>(numSets_) * assoc_);
    cnt_.accesses = &stats_.counter("accesses");
    cnt_.hits = &stats_.counter("hits");
    cnt_.misses = &stats_.counter("misses");
    cnt_.prefetchHits = &stats_.counter("prefetchHits");
    cnt_.evictions = &stats_.counter("evictions");
    cnt_.unusedPrefetchEvictions =
        &stats_.counter("unusedPrefetchEvictions");
    cnt_.prefetchFills = &stats_.counter("prefetchFills");
    cnt_.demandFills = &stats_.counter("demandFills");
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(blockNumber(addr) & (numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return blockNumber(addr) >> setShift_;
}

Cache::Line *
Cache::findInSet(unsigned set_idx, Addr tag)
{
    Line *set = &lines_[static_cast<size_t>(set_idx) * assoc_];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (set[way].valid && set[way].tag == tag)
            return &set[way];
    }
    return nullptr;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    return findInSet(setIndex(addr), tagOf(addr));
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

CacheAccessResult
Cache::touchLine(Line &line, bool is_write)
{
    ++*cnt_.hits;
    bool first_use = false;
    if (line.prefetched && !line.referenced) {
        line.referenced = true;
        first_use = true;
        ++*cnt_.prefetchHits;
    }
    line.lruStamp = nextStamp_++;
    if (is_write)
        line.dirty = true;
    return {true, first_use};
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    ++*cnt_.accesses;
    Line *line = findLine(addr);
    if (!line) {
        ++*cnt_.misses;
        return {false, false};
    }
    return touchLine(*line, is_write);
}

CacheAccessResult
Cache::accessIfPresent(Addr addr, bool is_write)
{
    Line *line = findLine(addr);
    if (!line)
        return {false, false}; // Probe only: nothing counted.
    ++*cnt_.accesses;
    return touchLine(*line, is_write);
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::containsUnusedPrefetch(Addr addr) const
{
    const Line *line = findLine(addr);
    return line && line->prefetched && !line->referenced;
}

std::optional<Eviction>
Cache::insert(Addr addr, bool as_prefetch, bool dirty,
              std::optional<adaptive::InsertPos> pos)
{
    const unsigned set_idx = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *set = &lines_[static_cast<size_t>(set_idx) * assoc_];

    // One pass over the set finds the re-insertion hit, the victim
    // (first invalid way, else earliest-scanned minimum stamp) and
    // the two smallest valid stamps, so the LRU-insertion stamp needs
    // no second walk.
    Line *present = nullptr;
    Line *free_way = nullptr;
    Line *lru_way = nullptr;
    uint64_t min_stamp = ~0ull, second_stamp = ~0ull;
    for (unsigned way = 0; way < assoc_; ++way) {
        Line &line = set[way];
        if (!line.valid) {
            if (!free_way)
                free_way = &line;
            continue;
        }
        if (line.tag == tag) {
            present = &line;
            break;
        }
        if (!lru_way || line.lruStamp < lru_way->lruStamp)
            lru_way = &line;
        if (line.lruStamp < min_stamp) {
            second_stamp = min_stamp;
            min_stamp = line.lruStamp;
        } else if (line.lruStamp < second_stamp) {
            second_stamp = line.lruStamp;
        }
    }

    // Re-inserting a present block only updates its state.
    if (present) {
        present->dirty = present->dirty || dirty;
        return std::nullopt;
    }

    Line *victim = free_way ? free_way : lru_way;
    std::optional<Eviction> evicted;
    if (victim->valid) {
        evicted = Eviction{
            ((victim->tag << setShift_) | set_idx) << kBlockShift,
            victim->dirty,
            victim->prefetched && !victim->referenced,
        };
        ++*cnt_.evictions;
        if (evicted->wasUnusedPrefetch)
            ++*cnt_.unusedPrefetchEvictions;
    }

    victim->valid = true;
    victim->tag = tag;
    victim->dirty = dirty;
    victim->prefetched = as_prefetch;
    victim->referenced = !as_prefetch;

    // Demand insertions are always MRU; prefetch insertions follow
    // the explicit control-plane position when given, else the
    // constructor policy.
    const adaptive::InsertPos eff =
        !as_prefetch ? adaptive::InsertPos::Mru
                     : pos.value_or(lruInsertion_
                                        ? adaptive::InsertPos::Lru
                                        : adaptive::InsertPos::Mru);
    // The stamp floor of the surviving lines: when the victim itself
    // was valid its stamp was the set minimum, so the surviving
    // minimum is the second one.
    const uint64_t other_min = free_way ? min_stamp : second_stamp;
    switch (eff) {
      case adaptive::InsertPos::Lru: {
        // LRU position: stamp below every other valid line in the set.
        const uint64_t floor_stamp =
            other_min == ~0ull ? nextStamp_ : other_min;
        victim->lruStamp = floor_stamp > 0 ? floor_stamp - 1 : 0;
        break;
      }
      case adaptive::InsertPos::Mid: {
        // Halfway up the recency stack: between the surviving LRU
        // stamp and the next MRU stamp (ties resolve by way order,
        // deterministically). An otherwise-empty set degenerates to
        // MRU.
        if (other_min == ~0ull) {
            victim->lruStamp = nextStamp_++;
        } else {
            victim->lruStamp =
                other_min + (nextStamp_ - other_min) / 2;
        }
        break;
      }
      case adaptive::InsertPos::Mru:
        victim->lruStamp = nextStamp_++;
        break;
    }
    if (as_prefetch)
        ++*cnt_.prefetchFills;
    else
        ++*cnt_.demandFills;
    return evicted;
}

void
Cache::markDirty(Addr addr)
{
    if (Line *line = findLine(addr))
        line->dirty = true;
}

void
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr))
        line->valid = false;
}

void
Cache::reset()
{
    for (Line &line : lines_)
        line = Line{};
    nextStamp_ = 1;
    stats_.reset();
}

} // namespace grp
