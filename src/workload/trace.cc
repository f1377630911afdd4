#include "workload/trace.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace aw::workload {

ArrivalTrace
ArrivalTrace::record(ArrivalProcess &source, sim::Rng &rng,
                     std::size_t n)
{
    std::vector<sim::Tick> gaps;
    gaps.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        gaps.push_back(source.nextGap(rng));
    return ArrivalTrace(std::move(gaps));
}

ArrivalTrace
ArrivalTrace::loadCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("ArrivalTrace::loadCsv: cannot open '%s'",
                   path.c_str());

    std::vector<sim::Tick> gaps;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip a trailing comment and treat commas as separators.
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        for (auto &c : line)
            if (c == ',')
                c = ' ';
        std::istringstream fields(line);
        std::string token;
        while (fields >> token) {
            char *end = nullptr;
            const double us = std::strtod(token.c_str(), &end);
            if (end == token.c_str() || *end != '\0' ||
                !std::isfinite(us)) {
                sim::fatal("ArrivalTrace::loadCsv: '%s' line %zu: "
                           "bad gap value '%s'",
                           path.c_str(), lineno, token.c_str());
            }
            if (us < 0.0)
                sim::fatal("ArrivalTrace::loadCsv: '%s' line %zu: "
                           "negative gap %f",
                           path.c_str(), lineno, us);
            gaps.push_back(sim::fromUs(us));
        }
    }
    if (gaps.empty())
        sim::fatal("ArrivalTrace::loadCsv: '%s' holds no gaps",
                   path.c_str());
    return ArrivalTrace(std::move(gaps));
}

void
ArrivalTrace::saveCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("ArrivalTrace::saveCsv: cannot write '%s'",
                   path.c_str());
    out << "# inter-arrival gaps, microseconds, one per line\n";
    // Full double precision so save/load round trips reproduce the
    // tick values exactly (bit-identical replay is the point).
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto g : _gaps)
        out << sim::toUs(g) << "\n";
    if (!out)
        sim::fatal("ArrivalTrace::saveCsv: write to '%s' failed",
                   path.c_str());
}

sim::Tick
ArrivalTrace::duration() const
{
    sim::Tick total = 0;
    for (const auto g : _gaps)
        total += g;
    return total;
}

double
ArrivalTrace::meanRatePerSec() const
{
    const sim::Tick d = duration();
    if (d == 0)
        return 0.0;
    return static_cast<double>(_gaps.size()) / sim::toSec(d);
}

TraceArrivals::TraceArrivals(ArrivalTrace trace, bool loop)
    : _trace(std::move(trace)), _loop(loop)
{
    if (_trace.empty())
        sim::panic("TraceArrivals: empty trace");
    // A looping trace that spans no time would replay infinitely
    // many arrivals at the same tick.
    if (_loop && _trace.duration() == 0)
        sim::fatal("TraceArrivals: zero-duration trace cannot loop");
}

bool
TraceArrivals::exhausted() const
{
    return !_loop && _pos >= _trace.size();
}

sim::Tick
TraceArrivals::nextGap(sim::Rng &)
{
    if (exhausted())
        return sim::kMaxTick;
    const sim::Tick gap = _trace.gaps()[_pos % _trace.size()];
    ++_pos;
    return gap;
}

double
TraceArrivals::ratePerSec() const
{
    return _trace.meanRatePerSec();
}

void
GapStream::append(std::vector<sim::Tick> gaps)
{
    if (_closed)
        sim::panic("GapStream: append after close");
    for (const sim::Tick g : gaps)
        _lastArrival += g;
    _count += gaps.size();
    if (_pos == _gaps.size()) {
        _gaps = std::move(gaps);
    } else {
        _gaps.erase(_gaps.begin(),
                    _gaps.begin() + static_cast<std::ptrdiff_t>(_pos));
        _gaps.insert(_gaps.end(), gaps.begin(), gaps.end());
    }
    _pos = 0;
}

sim::Tick
GapStream::nextGap(sim::Rng &)
{
    if (_pos < _gaps.size())
        return _gaps[_pos++];
    if (!_closed)
        sim::panic("GapStream: gap %llu asked for before it was "
                   "appended",
                   static_cast<unsigned long long>(_count + 1));
    return sim::kMaxTick;
}

double
GapStream::ratePerSec() const
{
    if (_lastArrival == 0)
        return 0.0;
    return static_cast<double>(_count) / sim::toSec(_lastArrival);
}

} // namespace aw::workload
