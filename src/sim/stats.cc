#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aw::sim {

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

double
Accumulator::cv() const
{
    const double m = mean();
    return m != 0.0 ? stddev() / m : 0.0;
}

namespace {

void
checkPercentile(double p)
{
    if (p < 0.0 || p > 100.0)
        panic("percentile out of range: %f", p);
}

} // namespace

std::size_t
nearestRank(double p, std::size_t n)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::max<std::size_t>(rank, 1);
}

const std::vector<double> &
PercentileTracker::sortedSamples() const
{
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
    return _samples;
}

double
PercentileTracker::percentile(double p) const
{
    checkPercentile(p);
    if (_samples.empty())
        return 0.0;
    return sortedSamples()[nearestRank(p, _samples.size()) - 1];
}

double
PercentileTracker::mean() const
{
    const std::span<const double> all(_samples);
    return meanOfRuns({&all, 1});
}

std::vector<double>
percentilesOfSortedRuns(std::span<const std::span<const double>> runs,
                        std::span<const double> ps)
{
    std::size_t n = 0;
    for (const auto &run : runs)
        n += run.size();
    for (const double p : ps)
        checkPercentile(p);
    std::vector<double> out(ps.size(), 0.0);
    if (n == 0 || ps.empty())
        return out;
    // Depth of each requested rank counted from the top (1 = the
    // largest sample).
    std::vector<std::size_t> depth(ps.size());
    std::size_t deepest = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        depth[i] = n - nearestRank(ps[i], n) + 1;
        deepest = std::max(deepest, depth[i]);
    }

    // Max-heap of each non-empty run's largest unpopped sample.
    struct Head
    {
        double value;
        std::size_t run;
        std::size_t pos;
    };
    const auto lower = [](const Head &a, const Head &b) {
        return a.value < b.value;
    };
    std::vector<Head> heap;
    heap.reserve(runs.size());
    for (std::size_t k = 0; k < runs.size(); ++k)
        if (!runs[k].empty())
            heap.push_back({runs[k].back(), k, runs[k].size() - 1});
    std::make_heap(heap.begin(), heap.end(), lower);

    for (std::size_t popped = 1;; ++popped) {
        std::pop_heap(heap.begin(), heap.end(), lower);
        Head &top = heap.back();
        for (std::size_t i = 0; i < ps.size(); ++i)
            if (depth[i] == popped)
                out[i] = top.value;
        if (popped == deepest)
            return out;
        if (top.pos == 0) {
            heap.pop_back();
        } else {
            top.value = runs[top.run][--top.pos];
            std::push_heap(heap.begin(), heap.end(), lower);
        }
    }
}

double
meanOfRuns(std::span<const std::span<const double>> runs)
{
    std::size_t n = 0;
    double sum = 0.0;
    for (const auto &run : runs) {
        for (const double s : run)
            sum += s;
        n += run.size();
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

} // namespace aw::sim
