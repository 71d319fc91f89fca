#include "core/engine_factory.hh"

#include "adaptive/signals.hh"
#include "prefetch/region_engine.hh"
#include "prefetch/stride.hh"

namespace grp
{

std::unique_ptr<PrefetchEngine>
makePrefetchEngine(const SimConfig &config, const FunctionalMemory &fmem,
                   MemorySystem &mem, obs::StatRegistry &registry)
{
    std::unique_ptr<PrefetchEngine> engine;
    auto present = [&mem](Addr addr) {
        return mem.l2().contains(addr) ||
               mem.l2Mshrs().find(addr) != nullptr;
    };

    switch (config.scheme) {
      case PrefetchScheme::None:
        break;
      case PrefetchScheme::Stride:
        engine = std::make_unique<StridePrefetcher>(config, registry);
        break;
      case PrefetchScheme::Srp:
      case PrefetchScheme::PointerHw:
      case PrefetchScheme::PointerHwRec:
      case PrefetchScheme::SrpPlusPointer:
      case PrefetchScheme::SrpThrottled:
      case PrefetchScheme::GrpFix:
      case PrefetchScheme::GrpVar:
      case PrefetchScheme::GrpAdaptive: {
        // srp-throttled's governor samples its accuracy epochs from
        // the run's mem.* counters (queue depth is unused: no
        // engine); the other schemes never read the source.
        auto region = std::make_unique<RegionEngine>(
            config, fmem, adaptive::memorySource(mem, nullptr),
            registry);
        region->setPresenceTest(present);
        engine = std::move(region);
        break;
      }
    }

    mem.setPrefetchEngine(engine.get());
    return engine;
}

} // namespace grp
