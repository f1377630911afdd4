/**
 * @file
 * Statistics collection: accumulators, weighted shares and percentile
 * trackers used by the latency/power reporting machinery.
 */

#ifndef AW_SIM_STATS_HH
#define AW_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace aw::sim {

/**
 * Streaming scalar statistics: count, sum, min, max, mean and
 * variance (Welford's algorithm, numerically stable).
 */
class Accumulator
{
  public:
    Accumulator() { reset(); }

    void
    reset()
    {
        _count = 0;
        _sum = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
        _mean = 0.0;
        _m2 = 0.0;
    }

    void
    add(double x)
    {
        ++_count;
        _sum += x;
        if (x < _min)
            _min = x;
        if (x > _max)
            _max = x;
        const double delta = x - _mean;
        _mean += delta / static_cast<double>(_count);
        _m2 += delta * (x - _mean);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _mean : 0.0; }

    /** Population variance. */
    double
    variance() const
    {
        return _count ? _m2 / static_cast<double>(_count) : 0.0;
    }

    double stddev() const;

    /** Coefficient of variation (stddev / mean), 0 if mean == 0. */
    double cv() const;

  private:
    std::uint64_t _count;
    double _sum;
    double _min;
    double _max;
    double _mean;
    double _m2;
};

/**
 * Exact percentile tracking by sample retention.
 *
 * Stores every sample; percentile() sorts lazily and caches until the
 * next add(). Suitable for the request counts this library simulates
 * (millions of samples at most per run).
 */
class PercentileTracker
{
  public:
    PercentileTracker() = default;

    /** Pre-allocate for an expected sample count. */
    void reserve(std::size_t n) { _samples.reserve(n); }

    void
    add(double x)
    {
        _samples.push_back(x);
        _sorted = false;
    }

    std::size_t count() const { return _samples.size(); }

    bool empty() const { return _samples.empty(); }

    /**
     * The p-th percentile (p in [0, 100]) using nearest-rank on the
     * sorted samples. An empty tracker reports 0.0 for every
     * percentile (like the empty Accumulator's accessors), so
     * aggregation paths need no special case for windows that
     * completed no requests. p outside [0, 100] is a panic.
     */
    double percentile(double p) const;

    /** Convenience accessors. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

    double mean() const;

    /** The samples in ascending order, sorted in place on first use
     *  (percentile() reads the same sorted storage). */
    const std::vector<double> &sortedSamples() const;

    /** Append every sample of @p other; lets aggregators pool
     *  per-component trackers into exact global percentiles. */
    void
    merge(const PercentileTracker &other)
    {
        _samples.insert(_samples.end(), other._samples.begin(),
                        other._samples.end());
        _sorted = false;
    }

    void
    reset()
    {
        _samples.clear();
        _sorted = false;
    }

  private:
    mutable std::vector<double> _samples;
    mutable bool _sorted = false;
};

/**
 * The nearest-rank rule every percentile in the simulator uses: the
 * 1-based rank ceil(p/100 * n), at least 1, of the p-th percentile
 * among @p n > 0 ascending samples.
 */
std::size_t nearestRank(double p, std::size_t n);

/**
 * Nearest-rank percentiles of the union of @p runs, each sorted
 * ascending, without pooling them: the result equals
 * PercentileTracker::percentile(ps[i]) over the concatenated runs,
 * bit for bit. The selection walks a descending K-way heap merge of
 * the runs' tails and stops at the deepest requested rank, so the
 * tail percentiles a fleet reports cost O((N - rank + 1) log K)
 * instead of an N-sample copy and sort. Every p must lie in
 * [0, 100]; an empty union reports 0.0 for every p.
 */
std::vector<double>
percentilesOfSortedRuns(std::span<const std::span<const double>> runs,
                        std::span<const double> ps);

/**
 * Mean of the concatenated @p runs, summed run by run in order and
 * each run in storage order into one running double: the exact
 * operation sequence of PercentileTracker::mean() over the
 * concatenation. 0.0 when every run is empty.
 */
double meanOfRuns(std::span<const std::span<const double>> runs);

/**
 * Time-weighted fraction tracker: accumulates durations attributed to
 * discrete categories and reports each category's share.
 *
 * This is the core of residency accounting (fraction of time per
 * C-state).
 */
class WeightedShares
{
  public:
    explicit WeightedShares(std::size_t categories)
        : _weights(categories, 0.0)
    {}

    void
    add(std::size_t category, double weight)
    {
        _weights.at(category) += weight;
        _total += weight;
    }

    double totalWeight() const { return _total; }

    /** Fraction of total weight in @p category (0 if no weight). */
    double
    share(std::size_t category) const
    {
        return _total > 0.0 ? _weights.at(category) / _total : 0.0;
    }

    double weight(std::size_t category) const
    {
        return _weights.at(category);
    }

    std::size_t categories() const { return _weights.size(); }

    void reset();

  private:
    std::vector<double> _weights;
    double _total = 0.0;
};

} // namespace aw::sim

#endif // AW_SIM_STATS_HH
