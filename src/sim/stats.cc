#include "sim/stats.hh"

#include <cassert>
#include <cmath>

namespace grp
{

uint64_t
Distribution::percentile(double p) const
{
    assert(samples_ != 0 && "percentile() on an empty distribution");
    if (!samples_)
        return 0; // Release builds: "no data", see header comment.
    if (p >= 100.0)
        return maxValue();
    // Rank of the percentile sample, at least 1 (p <= 0 gives the
    // smallest recorded value).
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples_)));
    if (rank == 0)
        rank = 1;
    uint64_t cumulative = 0;
    for (size_t value = 0; value < buckets_.size(); ++value) {
        cumulative += buckets_[value];
        if (cumulative >= rank)
            return value;
    }
    return maxValue();
}

void
StatGroup::sync() const
{
    if (sync_)
        sync_();
}

void
StatGroup::dump(std::ostream &os) const
{
    sync();
    for (const auto &[stat, counter] : counters_)
        os << name_ << '.' << stat << ' ' << counter.value() << '\n';
    for (const auto &[stat, dist] : distributions_) {
        os << name_ << '.' << stat << ".samples " << dist.samples() << '\n';
        os << name_ << '.' << stat << ".mean " << dist.mean() << '\n';
    }
}

void
StatGroup::reset()
{
    sync();
    for (auto &[stat, counter] : counters_)
        counter.reset();
    for (auto &[stat, dist] : distributions_)
        dist.reset();
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace grp
