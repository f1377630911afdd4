/**
 * @file
 * Arrival-trace record and replay.
 *
 * Production studies (and this paper's own load generators) often
 * replay captured request timings rather than synthetic
 * distributions. ArrivalTrace captures a sequence of inter-arrival
 * gaps -- either recorded from any ArrivalProcess or loaded from
 * explicit values -- and TraceArrivals replays it (optionally
 * looping), giving bit-identical request streams across
 * configurations under comparison.
 */

#ifndef AW_WORKLOAD_TRACE_HH
#define AW_WORKLOAD_TRACE_HH

#include <string>
#include <vector>

#include "sim/types.hh"
#include "workload/arrival.hh"

namespace aw::workload {

/**
 * A recorded sequence of inter-arrival gaps.
 */
class ArrivalTrace
{
  public:
    ArrivalTrace() = default;

    explicit ArrivalTrace(std::vector<sim::Tick> gaps)
        : _gaps(std::move(gaps))
    {}

    /**
     * Record @p n gaps from a live arrival process.
     */
    static ArrivalTrace record(ArrivalProcess &source, sim::Rng &rng,
                               std::size_t n);

    /**
     * Load a trace of captured inter-arrival gaps from a text/CSV
     * file. Each value is one gap in microseconds (floating point);
     * values may be separated by newlines, commas or whitespace.
     * Blank lines and lines starting with '#' are skipped.
     * Unreadable files and non-numeric tokens are fatal().
     */
    static ArrivalTrace loadCsv(const std::string &path);

    /** Write the trace in loadCsv() format (one gap/line, in us). */
    void saveCsv(const std::string &path) const;

    const std::vector<sim::Tick> &gaps() const { return _gaps; }
    std::size_t size() const { return _gaps.size(); }
    bool empty() const { return _gaps.empty(); }

    /** Total simulated time the trace spans. */
    sim::Tick duration() const;

    /** Mean arrival rate implied by the trace. */
    double meanRatePerSec() const;

    void append(sim::Tick gap) { _gaps.push_back(gap); }

  private:
    std::vector<sim::Tick> _gaps;
};

/**
 * Replays an ArrivalTrace as an ArrivalProcess.
 */
class TraceArrivals : public ArrivalProcess
{
  public:
    /**
     * @param trace  gaps to replay
     * @param loop   wrap around at the end (otherwise the stream
     *               ends: nextGap returns kMaxTick)
     */
    explicit TraceArrivals(ArrivalTrace trace, bool loop = true);

    sim::Tick nextGap(sim::Rng &rng) override;
    double ratePerSec() const override;

    std::size_t position() const { return _pos; }
    bool exhausted() const;

  private:
    ArrivalTrace _trace;
    bool _loop;
    std::size_t _pos = 0;
};

/**
 * An arrival stream whose gaps are appended while it is consumed:
 * a fleet server reads the gaps its balancer has routed so far, and
 * more follow at every epoch hand-over. close() marks the end; a
 * closed, drained stream ends like a finished non-looping trace
 * (nextGap returns kMaxTick). Asking an open stream for a gap it
 * does not hold yet panics: the consumer must stop short of its last
 * known arrival, whose dispatch would draw the next gap.
 */
class GapStream : public ArrivalProcess
{
  public:
    /** Append @p gaps; the consumed part of the held chunk is freed
     *  first, so the stream holds one hand-over's worth, not the
     *  whole run's. */
    void append(std::vector<sim::Tick> gaps);

    /** No more gaps will be appended. */
    void close() { _closed = true; }

    sim::Tick nextGap(sim::Rng &rng) override;

    /** Every appended gap's count over their sum: what an
     *  ArrivalTrace of the same gaps reports, however they were
     *  chunked. */
    double ratePerSec() const override;

    /** Sum of every appended gap: the last known arrival's tick. */
    sim::Tick lastArrival() const { return _lastArrival; }

  private:
    std::vector<sim::Tick> _gaps;
    std::size_t _pos = 0;
    std::uint64_t _count = 0;
    sim::Tick _lastArrival = 0;
    bool _closed = false;
};

} // namespace aw::workload

#endif // AW_WORKLOAD_TRACE_HH
