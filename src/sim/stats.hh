/**
 * @file
 * Lightweight statistics: named counters, distributions and derived
 * ratios, grouped per component and dumpable as text.
 */

#ifndef GRP_SIM_STATS_HH
#define GRP_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace grp
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t n) { value_ += n; return *this; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** A bucketed distribution over small integer sample values. */
class Distribution
{
  public:
    /** Record one sample of @p value. */
    void
    sample(uint64_t value)
    {
        if (buckets_.size() <= value)
            buckets_.resize(value + 1, 0);
        ++buckets_[value];
        ++samples_;
        sum_ += value;
    }

    uint64_t samples() const { return samples_; }
    uint64_t sum() const { return sum_; }

    double
    mean() const
    {
        return samples_ ? static_cast<double>(sum_) / samples_ : 0.0;
    }

    /** Count of samples equal to @p value. */
    uint64_t
    count(uint64_t value) const
    {
        return value < buckets_.size() ? buckets_[value] : 0;
    }

    /** Fraction of samples equal to @p value (0 if no samples). */
    double
    fraction(uint64_t value) const
    {
        return samples_ ? static_cast<double>(count(value)) / samples_ : 0.0;
    }

    size_t maxValue() const { return buckets_.empty() ? 0
                                                      : buckets_.size() - 1; }

    /**
     * The @p p-th percentile of the recorded samples (p in [0, 100]):
     * the smallest recorded value v such that at least p percent of
     * all samples are <= v.
     *
     * An empty distribution has no percentiles: debug builds assert;
     * release builds return 0, which callers must treat as "no data"
     * (guard with samples() before calling when 0 is a legal sample
     * value).
     */
    uint64_t percentile(double p) const;

    void
    reset()
    {
        buckets_.clear();
        samples_ = 0;
        sum_ = 0;
    }

  private:
    std::vector<uint64_t> buckets_;
    uint64_t samples_ = 0;
    uint64_t sum_ = 0;
};

/**
 * A named group of statistics. Components register their counters at
 * construction; dump() prints "group.name value" lines.
 *
 * A component that books some counters lazily installs a sync with
 * setSync(); every read (value(), counters(), dump()) and reset()
 * runs it first, so readers see the values eager booking would have
 * held. A cached Counter * to a lazily booked counter bypasses the
 * sync and reads a stale value.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under @p stat_name; returns a reference. */
    Counter &
    counter(const std::string &stat_name)
    {
        return counters_[stat_name];
    }

    /** Register a distribution under @p stat_name. */
    Distribution &
    distribution(const std::string &stat_name)
    {
        return distributions_[stat_name];
    }

    /** Read a counter value (0 if absent). */
    uint64_t
    value(const std::string &stat_name) const
    {
        sync();
        auto it = counters_.find(stat_name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    const std::string &name() const { return name_; }

    /** All counters, keyed by stat name (exporters iterate these). */
    const std::map<std::string, Counter> &counters() const
    {
        sync();
        return counters_;
    }

    /** All distributions, keyed by stat name. */
    const std::map<std::string, Distribution> &distributions() const
    {
        return distributions_;
    }

    /** Print all stats to @p os as "group.stat value" lines. */
    void dump(std::ostream &os) const;

    /** Reset every stat in the group to zero. */
    void reset();

    /** Run @p sync before every read or reset of the group (see the
     *  class comment); an empty function removes it. */
    void setSync(std::function<void()> sync) { sync_ = std::move(sync); }

  private:
    void sync() const;

    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
    std::function<void()> sync_;
};

/** Geometric mean of a vector of positive values (1.0 when empty). */
double geometricMean(const std::vector<double> &values);

} // namespace grp

#endif // GRP_SIM_STATS_HH
