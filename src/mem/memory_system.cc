#include "mem/memory_system.hh"

#include <algorithm>

#include "mem/dram_backend/factory.hh"

#include "obs/host_prof.hh"
#include "sim/logging.hh"

namespace grp
{

namespace
{
/** Token used for store targets (no CPU callback wanted). */
constexpr uint64_t kStoreToken = ~0ull;
} // namespace

MemorySystem::MemorySystem(const SimConfig &config, EventQueue &events,
                           obs::StatRegistry &registry)
    : config_(config),
      events_(events),
      stats_("mem"),
      statReg_(stats_, registry)
{
    config_.validate();
    // Resolve the DRAM backend (config field / GRP_DRAM / legacy)
    // before anything is sized off the geometry: timing presets
    // override channel/bank/row counts.
    resolveDramBackend(config_.dram);
    // Registered up front so it exports as an explicit zero: a
    // non-zero value flags the accuracy>1 accounting bug (see
    // harness/runner.cc), which must be countable, not just logged.
    stats_.counter("accuracyClampEvents");
    l1d_ = std::make_unique<Cache>(config.l1d, "l1d",
                                   config.region.lruInsertion, registry);
    l2_ = std::make_unique<Cache>(config.l2, "l2",
                                  config.region.lruInsertion, registry);
    l1Mshrs_ = std::make_unique<MshrFile>(config.l1d.mshrs,
                                          config.l1d.mshrTargets,
                                          "l1dMshrs", registry);
    l2Mshrs_ = std::make_unique<MshrFile>(config.l2.mshrs,
                                          config.l2.mshrTargets,
                                          "l2Mshrs", registry);
    dram_ = makeDramBackend(config_.dram, registry);
    timingMode_ = dram_->queued();
    demandQueues_.resize(config_.dram.channels);
    writebackQueues_.resize(config_.dram.channels);

    // Registered up front (and cached: Counter storage is stable
    // across reset()) so the per-access accounting is a pointer
    // increment, never a string-keyed map lookup.
    hot_.l1DemandAccesses = &stats_.counter("l1DemandAccesses");
    hot_.l1DemandMisses = &stats_.counter("l1DemandMisses");
    hot_.l1TargetStalls = &stats_.counter("l1TargetStalls");
    hot_.l1MshrStalls = &stats_.counter("l1MshrStalls");
    hot_.l2DemandAccesses = &stats_.counter("l2DemandAccesses");
    hot_.l2DemandHits = &stats_.counter("l2DemandHits");
    hot_.l2DemandMissesTotal = &stats_.counter("l2DemandMissesTotal");
    hot_.latePrefetchUpgrades = &stats_.counter("latePrefetchUpgrades");
    hot_.l2TargetStalls = &stats_.counter("l2TargetStalls");
    hot_.l2MshrStalls = &stats_.counter("l2MshrStalls");
    hot_.demandToMemory = &stats_.counter("demandToMemory");
    hot_.demandFills = &stats_.counter("demandFills");
    hot_.prefetchFills = &stats_.counter("prefetchFills");
    hot_.writebacks = &stats_.counter("writebacks");
    hot_.writebacksQueued = &stats_.counter("writebacksQueued");
    lifecycle_.bindMemory(stats_, classCounts_);
    // Deferred ticks owe their stall notes: every read or reset of
    // the group books them first.
    stats_.setSync([this] { bookStalls(); });
}

uint8_t
MemorySystem::demandPtrDepth(const LoadHints &hints) const
{
    switch (config_.scheme) {
      case PrefetchScheme::PointerHw:
      case PrefetchScheme::SrpPlusPointer:
        return 1;
      case PrefetchScheme::PointerHwRec:
        return static_cast<uint8_t>(config_.region.recursiveDepth);
      case PrefetchScheme::GrpFix:
      case PrefetchScheme::GrpVar:
        return static_cast<uint8_t>(
            hints.pointerDepth(config_.region.recursiveDepth));
      case PrefetchScheme::GrpAdaptive: {
        unsigned depth = hints.pointerDepth(config_.region.recursiveDepth);
        if (plane_ && depth > 0) {
            const obs::HintClass cls = depth > 1
                                           ? obs::HintClass::Recursive
                                           : obs::HintClass::Pointer;
            depth = std::min<unsigned>(depth, plane_->ptrDepthCap(cls));
        }
        return static_cast<uint8_t>(depth);
      }
      default:
        return 0;
    }
}

bool
MemorySystem::loadMiss(Addr addr, RefId ref, const LoadHints &hints,
                       uint64_t token)
{
    if (!handleL1Miss(addr, ref, hints, token, false))
        return false;
    ++*hot_.l1DemandAccesses;
    ++*hot_.l1DemandMisses;
    return true;
}

bool
MemorySystem::storeMiss(Addr addr, RefId ref, const LoadHints &hints)
{
    if (!handleL1Miss(addr, ref, hints, kStoreToken, true))
        return false;
    ++*hot_.l1DemandAccesses;
    ++*hot_.l1DemandMisses;
    return true;
}

bool
MemorySystem::handleL1Miss(Addr addr, RefId ref, const LoadHints &hints,
                           uint64_t token, bool is_write)
{
    const Addr block = blockAlign(addr);
    const MshrTarget target{token, is_write, ref};

    // Coalesce onto an existing outstanding L1 miss.
    if (Mshr *mshr = l1Mshrs_->find(block)) {
        if (!l1Mshrs_->addTarget(*mshr, target)) {
            ++*hot_.l1TargetStalls;
            return false;
        }
        return true;
    }

    if (l1Mshrs_->full()) {
        ++*hot_.l1MshrStalls;
        return false;
    }

    const unsigned l1_to_l2 = config_.l1d.latency + config_.l2.latency;

    if (config_.perfection == Perfection::PerfectL2) {
        Mshr &mshr = l1Mshrs_->allocate(block, false, hints, 0,
                                        events_.curTick());
        l1Mshrs_->addTarget(mshr, target);
        respondAfter(l1_to_l2, block);
        return true;
    }

    // The L2 sees only the clean-read side of a store miss: the store
    // data lands in the L1 copy (write-allocate); the L2 copy stays
    // clean until the L1 victim is written back.
    GRP_HOST_SCOPE(2, L2Access);
    // The engine callbacks, the MSHR allocation and the demand push
    // below can each change what the prioritizer does.
    settle();
    ++*hot_.l2DemandAccesses;
    // Single tag walk: probe and (on a hit) touch in one pass. The
    // first-use-of-prefetch outcome is applied after the engine
    // callback below to preserve the original notification order.
    const CacheAccessResult l2_res = l2_->accessIfPresent(block, false);
    const bool l2_hit = l2_res.hit;
    if (shadow_)
        classifyDemandAccess(block, l2_hit);

    if (engine_)
        engine_->onL2DemandAccess(block, ref, hints, l2_hit);

    if (l2_hit) {
        ++*hot_.l2DemandHits;
        if (l2_res.firstUseOfPrefetch)
            notePrefetchUseful(block);
        Mshr &mshr = l1Mshrs_->allocate(block, false, hints, 0,
                                        events_.curTick());
        l1Mshrs_->addTarget(mshr, target);
        respondAfter(l1_to_l2, block);
        return true;
    }

    ++*hot_.l2DemandMissesTotal;

    // A prefetch for this block may already be in flight: merge.
    if (Mshr *l2_mshr = l2Mshrs_->find(block)) {
        // A demand entry would imply an L1 MSHR for this block, which
        // the coalescing check above would have found.
        panic_if(!l2_mshr->isPrefetch,
                 "demand L2 MSHR without an L1 MSHR for block %#llx",
                 (unsigned long long)block);
        if (!l2Mshrs_->addTarget(*l2_mshr, target)) {
            ++*hot_.l2TargetStalls;
            return false;
        }
        ++*hot_.latePrefetchUpgrades;
        Mshr &mshr = l1Mshrs_->allocate(block, false, hints, 0,
                                        events_.curTick());
        l1Mshrs_->addTarget(mshr, target);
        return true;
    }

    if (l2Mshrs_->full()) {
        ++*hot_.l2MshrStalls;
        return false;
    }

    // Full miss: allocate both MSHRs and queue the DRAM request.
    ++*hot_.demandToMemory;
    const uint8_t depth = demandPtrDepth(hints);
    Mshr &l2_mshr = l2Mshrs_->allocate(block, false, hints, depth,
                                       events_.curTick());
    l2Mshrs_->addTarget(l2_mshr, target);
    Mshr &l1_mshr = l1Mshrs_->allocate(block, false, hints, 0,
                                       events_.curTick());
    l1Mshrs_->addTarget(l1_mshr, target);

    MemRequest req;
    req.blockAddr = block;
    req.cls = ReqClass::Demand;
    req.refId = ref;
    req.hints = hints;
    req.ptrDepth = depth;
    req.enqueued = events_.curTick();
    const unsigned channel = dram_->channelOf(block);
    demandQueues_[channel].push_back(req);
    ++queuedDemand_;
    dram_->setWaitingDemands(channel, demandQueues_[channel].size(),
                             events_.curTick());

    if (engine_)
        engine_->onL2DemandMiss(block, ref, hints);
    return true;
}

void
MemorySystem::respondAfter(Tick delay, Addr block_addr)
{
    events_.scheduleIn(delay,
                       [this, block_addr] { finishL1Fill(block_addr); });
}

void
MemorySystem::finishL1Fill(Addr block_addr)
{
    Mshr *mshr = l1Mshrs_->find(block_addr);
    panic_if(!mshr, "L1 fill without an MSHR for block %#llx",
             (unsigned long long)block_addr);

    bool dirty = false;
    for (const MshrTarget &target : mshr->targets)
        dirty = dirty || target.isWrite;

    auto evicted = l1d_->insert(block_addr, false, dirty);
    if (evicted && evicted->dirty) {
        // L1 victim writeback allocates in the L2.
        if (l2_->contains(evicted->blockAddr))
            l2_->markDirty(evicted->blockAddr);
        else if (config_.perfection == Perfection::None)
            insertIntoL2(evicted->blockAddr, true);
        // The baseline cache receives the same writeback allocation;
        // replay it so the shadow diverges only through prefetching.
        if (shadow_)
            shadow_->allocate(evicted->blockAddr);
    }

    for (const MshrTarget &target : mshr->targets) {
        if (!target.isWrite)
            loadDone_(target.token);
    }
    l1Mshrs_->deallocate(*mshr);
}

void
MemorySystem::notePrefetchUseful(Addr block_addr)
{
    const FillRecord *fill = l2_->fillRecord(block_addr);
    if (!fill) {
        // No fill record (a line the L2 took as a prefetch without
        // one): attribute conservatively as carryover so measured
        // accuracy stays a fills-vs-uses ratio over the same window.
        lifecycle_.note({obs::TraceEvent::FirstUse, block_addr,
                         obs::HintClass::None, -1, -1, true});
        return;
    }

    const uint64_t distance = std::min<uint64_t>(
        events_.curTick() - fill->fillTick, obs::kFillToUseCap);
    lifecycle_.note({obs::TraceEvent::FirstUse, block_addr, fill->hint, -1,
                     static_cast<int64_t>(distance), fill->warm,
                     fill->ref});
}

void
MemorySystem::insertIntoL2(Addr block_addr, bool dirty,
                           const FillRecord *fill)
{
    // The control plane (when attached) picks the recency position of
    // prefetch fills per hint class; demand fills stay MRU.
    const bool as_prefetch = fill != nullptr;
    std::optional<adaptive::InsertPos> pos;
    if (plane_ && as_prefetch)
        pos = plane_->insertPos(fill->hint);
    auto evicted = l2_->insert(block_addr, as_prefetch, dirty, pos, fill);
    if (shadow_ && as_prefetch && evicted) {
        // A prefetch fill displaced a live block: remember whom to
        // charge if a demand comes back for the victim while the
        // shadow cache still holds it (a pollution miss).
        const uint64_t drops_before = victims_.drops();
        victims_.record(evicted->blockAddr, fill->ref, fill->hint);
        *pol_.victimDrops += victims_.drops() - drops_before;
        lifecycle_.note({obs::TraceEvent::EvictVictim, evicted->blockAddr,
                         fill->hint, -1, -1, false, fill->ref});
    }
    if (evicted && evicted->wasUnusedPrefetch) {
        // Without a fill record the eviction stays unattributed.
        obs::TraceRecord rec(obs::TraceEvent::EvictedUnused,
                             evicted->blockAddr);
        if (evicted->record.valid) {
            rec.hint = evicted->record.hint;
            rec.carryover = evicted->record.warm;
            rec.site = evicted->record.ref;
        }
        lifecycle_.note(rec);
    }
    if (evicted && evicted->dirty) {
        MemRequest wb;
        wb.blockAddr = evicted->blockAddr;
        wb.cls = ReqClass::Writeback;
        wb.enqueued = events_.curTick();
        settle();
        writebackQueues_[dram_->channelOf(wb.blockAddr)].push_back(wb);
        ++queuedWriteback_;
        ++*hot_.writebacksQueued;
    }
}

void
MemorySystem::enableShadowTags()
{
    if (shadow_)
        return;
    shadow_ = std::make_unique<obs::ShadowTags>(l2_->sets(),
                                                l2_->assoc());
    // Registered (and cached: Counter storage is stable across
    // reset()) only when the shadow model is on, so non-shadow runs
    // export exactly the same stat set as before.
    pol_.bothHits = &stats_.counter("pollutionBothHits");
    pol_.baselineMisses = &stats_.counter("pollutionBaselineMisses");
    pol_.coverageHits = &stats_.counter("pollutionCoverageHits");
    pol_.shadowMisses = &stats_.counter("pollutionShadowMisses");
    pol_.victimDrops = &stats_.counter("pollutionVictimDrops");
    lifecycle_.bindPollution(stats_);
}

void
MemorySystem::classifyDemandAccess(Addr block_addr, bool real_hit)
{
    // One shadow probe per demand L2 access keeps the four outcome
    // counters a partition of l2DemandAccesses, which is what makes
    //   coverageHits - pollutionMisses == shadowMisses - realMisses
    // hold exactly over any window aligned with stat resets. That
    // alignment includes retries: an access that stalls (MSHR/target
    // pressure) re-enters here each cycle, exactly as it re-counts in
    // l2DemandAccesses/l2DemandMissesTotal — so in stall-heavy
    // configurations a single architectural miss can classify many
    // times (the shadow allocates on its first probe, turning the
    // retries into pollution-class counts the victim table cannot
    // attribute).
    const bool shadow_hit = shadow_->access(block_addr);
    if (!shadow_hit)
        ++*pol_.shadowMisses;
    if (real_hit && shadow_hit) {
        ++*pol_.bothHits;
    } else if (real_hit) {
        ++*pol_.coverageHits;
    } else if (shadow_hit) {
        // A pollution miss, charged to the prefetch that evicted the
        // block while the victim table still remembers it.
        obs::TraceRecord rec(obs::TraceEvent::PollutionMiss, block_addr);
        if (auto victim = victims_.take(block_addr)) {
            rec.hint = victim->hint;
            rec.site = victim->ref;
        }
        lifecycle_.note(rec);
    } else {
        ++*pol_.baselineMisses;
    }
}

void
MemorySystem::indirectPrefetch(Addr base, unsigned elem_size,
                               Addr index_addr, RefId ref)
{
    if (engine_) {
        settle();
        engine_->indirectPrefetch(base, elem_size, index_addr, ref);
    }
}

void
MemorySystem::fullTick(Tick now)
{
    if (config_.perfection != Perfection::None)
        return;
    // The owed cycles saw the state this walk starts from.
    bookStalls();

    // Queued backends schedule commands and retire transfers inside
    // their own tick; completed fills are drained here so they take
    // the same onDramFill path a legacy completion event takes.
    if (timingMode_) {
        dram_->tick(now);
        while (auto filled = dram_->popCompleted(now))
            onDramFill(std::move(*filled));
    }

    for (unsigned ch = 0; ch < config_.dram.channels; ++ch) {
        const bool can_issue = timingMode_ ? dram_->canAccept(ch, now)
                                           : dram_->channelIdle(ch, now);
        if (!can_issue)
            continue;
        auto &demand = demandQueues_[ch];
        auto &wb = writebackQueues_[ch];
        if (wb.size() > kWritebackHighWater) {
            startDramAccess(ch, wb.front());
            wb.pop_front();
            --queuedWriteback_;
        } else if (!demand.empty()) {
            startDramAccess(ch, demand.front());
            demand.pop_front();
            --queuedDemand_;
            dram_->setWaitingDemands(ch, demand.size(), now);
        } else if (!wb.empty()) {
            startDramAccess(ch, wb.front());
            wb.pop_front();
            --queuedWriteback_;
        } else {
            tryIssuePrefetch(ch);
        }
    }
    // The backend books channel and contention cycles when what they
    // depend on changes; this cycle is now simulated.
    dram_->accountTo(now + 1);
    tickedTo_ = settledTo_ = now + 1;
    workTick_ = defer_ ? nextWorkTick(now) : 0;
}

Tick
MemorySystem::nextWorkTick(Tick now) const
{
    if (config_.perfection != Perfection::None)
        return kMaxTick; // tick() is a no-op under perfection.

    // The prefetch gates tryIssuePrefetch would test this cycle; they
    // cannot change inside a stall window (the CPU is frozen and no
    // DRAM completion events fire before the skip target).
    const bool gates_open =
        engine_ && engine_->queueDepth() > 0 && !prefetchStall();

    // A queued backend retires, commits and schedules transfers on
    // its own; no window may skip over its next transition.
    Tick next = timingMode_ ? dram_->nextTransitionTick(now) : kMaxTick;
    for (unsigned ch = 0; ch < config_.dram.channels; ++ch) {
        // A channel does new work once it can issue, when it either
        // starts a queued access or (gates open, candidates pending)
        // may draw a prefetch.
        if (demandQueues_[ch].empty() && writebackQueues_[ch].empty() &&
            !gates_open) {
            continue;
        }
        if (timingMode_) {
            // A full command queue frees a slot only at a backend
            // transition, which already bounds next.
            if (dram_->canAccept(ch, now + 1))
                return now + 1;
            continue;
        }
        const Tick first_idle =
            std::max(dram_->channelBusyUntil(ch), now + 1);
        next = std::min(next, first_idle);
    }
    return next;
}

void
MemorySystem::fastForwardTicks(Tick from, Tick to)
{
    if (config_.perfection != Perfection::None || to <= from)
        return;
    panic_if(from != tickedTo_, "fast forward from tick %llu, not %llu",
             (unsigned long long)from, (unsigned long long)tickedTo_);
    // Nothing the backend books from changes inside the window, and
    // the window's stall notes are owed like a deferred tick's.
    dram_->accountTo(to);
    tickedTo_ = to;
}

void
MemorySystem::bookStalls()
{
    if (settledTo_ == tickedTo_)
        return;
    const Tick from = settledTo_;
    const Tick to = tickedTo_;
    settledTo_ = to;
    // The note tryIssuePrefetch would have made on each owed cycle
    // the channel could issue: every bus-idle cycle on the legacy
    // backend, every cycle with command-queue space on a queued one.
    // Nothing the reason or the channels depend on changed since the
    // last full walk (each change settles first), and an owed cycle
    // draws no prefetch, so one reason holds for every channel. With
    // the gates open the fold books nothing: a channel that could
    // issue in an owed cycle would have drawn from an empty engine
    // queue, where the draw loop touches no counter.
    const std::optional<obs::StallReason> stall =
        engine_ ? prefetchStall() : std::nullopt;
    if (!stall)
        return;
    for (unsigned ch = 0; ch < config_.dram.channels; ++ch) {
        const uint64_t stalled =
            timingMode_
                ? (dram_->canAccept(ch, from) ? to - from : 0)
                : to - std::clamp(dram_->channelBusyUntil(ch), from, to);
        if (stalled) {
            lifecycle_.note({obs::TraceEvent::Stall, 0,
                             obs::HintClass::None, static_cast<int>(ch),
                             static_cast<int64_t>(*stall)},
                            stalled);
        }
    }
}

void
MemorySystem::startDramAccess(unsigned channel, const MemRequest &req)
{
    panic_if(dram_->channelOf(req.blockAddr) != channel,
             "request routed to the wrong channel");
    const Tick done = dram_->serve(req.blockAddr, events_.curTick(),
                                   req.cls, req.refId, req.hintClass);

    switch (req.cls) {
      case ReqClass::Demand:
        ++*hot_.demandFills;
        break;
      case ReqClass::Prefetch:
        ++*hot_.prefetchFills;
        break;
      case ReqClass::Writeback:
        ++*hot_.writebacks;
        return; // Writebacks need no completion handling.
    }

    // Queued backends deliver the fill through popCompleted() once
    // their command scheduling retires the transfer.
    if (done == kTickPending)
        return;

    MemRequest in_flight = req;
    events_.schedule(done, [this, in_flight] { onDramFill(in_flight); });
}

void
MemorySystem::onDramFill(MemRequest req)
{
    settle();
    Mshr *mshr = l2Mshrs_->find(req.blockAddr);
    panic_if(!mshr, "DRAM fill without an L2 MSHR for block %#llx",
             (unsigned long long)req.blockAddr);

    // A prefetch upgraded by a demand miss while in flight behaves as
    // a demand fill from here on.
    const bool demand_class = !mshr->isPrefetch;
    const uint8_t depth = mshr->ptrDepth;
    const bool was_prefetch_req = req.cls == ReqClass::Prefetch;

    if (was_prefetch_req) {
        const FillRecord fill{events_.curTick(), req.refId, req.hintClass,
                              mshr->allocated < boundaryTick_, true};
        insertIntoL2(req.blockAddr, false, &fill);
        lifecycle_.note({obs::TraceEvent::Fill, req.blockAddr,
                         req.hintClass, -1, -1, fill.warm, req.refId});
    } else {
        insertIntoL2(req.blockAddr, false);
    }
    if (demand_class && was_prefetch_req) {
        // Late prefetch: the waiting demand touches it immediately.
        if (l2_->access(req.blockAddr, false).firstUseOfPrefetch)
            notePrefetchUseful(req.blockAddr);
    }

    l2Mshrs_->deallocate(*mshr);

    if (engine_ && depth > 0)
        engine_->onFill(req.blockAddr, depth,
                        demand_class ? ReqClass::Demand
                                     : ReqClass::Prefetch);

    if (demand_class)
        respondAfter(config_.l1d.latency, req.blockAddr);
}

bool
MemorySystem::tryIssuePrefetch(unsigned channel)
{
    if (!engine_)
        return false;
    GRP_HOST_SCOPE(2, PrefetchIssue);
    if (const auto stall = prefetchStall()) {
        lifecycle_.note({obs::TraceEvent::Stall, 0, obs::HintClass::None,
                         static_cast<int>(channel),
                         static_cast<int64_t>(*stall)});
        return false;
    }

    for (unsigned attempt = 0; attempt < kPrefetchDrawLimit; ++attempt) {
        auto candidate = engine_->dequeuePrefetch(*dram_, channel);
        if (!candidate)
            return false;
        const Addr block = candidate->blockAddr;
        panic_if(dram_->channelOf(block) != channel,
                 "engine offered a candidate for the wrong channel");
        if (l2_->contains(block) || l2Mshrs_->find(block)) {
            lifecycle_.note({obs::TraceEvent::Filtered, block,
                             candidate->hintClass,
                             static_cast<int>(channel), -1, false,
                             candidate->refId});
            continue;
        }
        l2Mshrs_->allocate(block, true, LoadHints{},
                           candidate->ptrDepth, events_.curTick());
        MemRequest req;
        req.blockAddr = block;
        req.cls = ReqClass::Prefetch;
        req.refId = candidate->refId;
        req.ptrDepth = candidate->ptrDepth;
        req.hintClass = candidate->hintClass;
        req.enqueued = events_.curTick();
        startDramAccess(channel, req);
        lifecycle_.note({obs::TraceEvent::Issue, block,
                         candidate->hintClass, static_cast<int>(channel),
                         candidate->ptrDepth, false, candidate->refId});
        return true;
    }
    return false;
}

std::optional<obs::StallReason>
MemorySystem::prefetchStall() const
{
    // The access prioritizer forwards prefetch requests only when
    // there are no outstanding demand misses from the L2 (§3.1):
    // prefetches thus contend with demands only when the demand
    // arrived after the prefetch had already been issued to DRAM.
    // A queued demand always holds a demand L2 MSHR (handleL1Miss
    // allocates it before the push and the fill frees it), so the
    // first test covers the demand queue too.
    if (l2Mshrs_->demandInFlight() > 0)
        return obs::StallReason::DemandInFlight;
    if (l2Mshrs_->capacity() - l2Mshrs_->inFlight() <=
        kDemandReservedMshrs) {
        return obs::StallReason::MshrReserve;
    }
    return std::nullopt;
}

bool
MemorySystem::quiesced() const
{
    return l1Mshrs_->inFlight() == 0 && queuedDemand_ == 0;
}

uint64_t
MemorySystem::trafficBytes() const
{
    return kBlockBytes * (stats_.value("demandFills") +
                          stats_.value("prefetchFills") +
                          stats_.value("writebacks"));
}

uint64_t
MemorySystem::l2DemandMisses() const
{
    return stats_.value("demandToMemory") +
           stats_.value("latePrefetchUpgrades");
}

size_t
MemorySystem::demandQueueDepth() const
{
    return queuedDemand_;
}

size_t
MemorySystem::writebackQueueDepth() const
{
    return queuedWriteback_;
}

void
MemorySystem::resetStats()
{
    l1d_->stats().reset();
    l2_->stats().reset();
    l1Mshrs_->stats().reset();
    l2Mshrs_->stats().reset();
    dram_->stats().reset();
    stats_.reset();
    // Prefetches filled before this boundary must not count toward
    // measured-window accuracy when they are finally referenced.
    boundaryTick_ = events_.curTick();
    l2_->markFillRecordsWarm();
    classCounts_ = {};
}

void
MemorySystem::reset()
{
    settle();
    l1d_->reset();
    l2_->reset();
    l1Mshrs_->reset();
    l2Mshrs_->reset();
    dram_->reset();
    for (auto &queue : demandQueues_)
        queue.clear();
    for (auto &queue : writebackQueues_)
        queue.clear();
    queuedDemand_ = 0;
    queuedWriteback_ = 0;
    boundaryTick_ = 0;
    if (shadow_)
        shadow_->reset();
    victims_.reset();
    stats_.reset();
    classCounts_ = {};
}

} // namespace grp
