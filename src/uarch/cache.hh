/**
 * @file
 * Private cache (L1/L2) model: geometry, dirty-line tracking, the
 * flush-time model that dominates C6 entry latency, snoop service
 * and the sleep-mode state machine hooks used by CCSM.
 */

#ifndef AW_UARCH_CACHE_HH
#define AW_UARCH_CACHE_HH

#include <cstdint>
#include <string>

#include "power/units.hh"
#include "sim/types.hh"

namespace aw::uarch {

/**
 * Geometry of one cache array.
 */
struct CacheGeometry
{
    std::string name;
    std::uint64_t capacityBytes = 0;
    std::uint64_t lineBytes = 64;

    std::uint64_t
    lines() const
    {
        return capacityBytes / lineBytes;
    }
};

/**
 * Flush-time model.
 *
 * A flush walks every line (tag scan) and writes back the dirty ones,
 * all at the current core frequency:
 *
 *   cycles = lines * scanCycles + dirtyLines * writebackCycles
 *
 * Calibrated against the paper's x86 reference point: flushing the
 * private caches at 50% dirty and 800 MHz takes ~75 us (Sec 3).
 */
class FlushModel
{
  public:
    /**
     * @param scan_cycles       cycles to scan one line's tag/state
     * @param writeback_cycles  cycles to write back one dirty line
     */
    constexpr FlushModel(double scan_cycles, double writeback_cycles)
        : _scanCycles(scan_cycles), _writebackCycles(writeback_cycles)
    {}

    /**
     * Build a model matching a calibration anchor: flushing
     * @p lines lines with @p dirty_fraction dirty at @p freq takes
     * @p anchor_time, assuming one scan cycle per line.
     */
    static FlushModel calibrate(std::uint64_t lines,
                                double dirty_fraction,
                                sim::Frequency freq,
                                sim::Tick anchor_time);

    double scanCycles() const { return _scanCycles; }
    double writebackCycles() const { return _writebackCycles; }

    /** Flush latency for @p lines lines at @p dirty_fraction. */
    sim::Tick flushTime(std::uint64_t lines, double dirty_fraction,
                        sim::Frequency freq) const;

  private:
    double _scanCycles;
    double _writebackCycles;
};

/** The power state of the private-cache domain. */
enum class CacheDomainState
{
    Active,      //!< clocks running, nominal voltage
    Flushed,     //!< contents invalid, power may be removed (C6)
};

/**
 * The private L1/L2 cache subsystem of one core.
 *
 * Tracks a statistical dirty fraction rather than per-line state:
 * the C-state transition costs depend only on how many lines must be
 * written back, and the workload models update dirtiness through
 * touch().
 */
class PrivateCaches
{
  public:
    PrivateCaches(CacheGeometry l1i, CacheGeometry l1d,
                  CacheGeometry l2, FlushModel flush_model);

    /** The Skylake server core instance: 32K+32K L1, 1 MB L2,
     *  flush model calibrated to 75 us at 50% dirty / 800 MHz. */
    static PrivateCaches skylakeServer();

    std::uint64_t totalCapacityBytes() const;
    std::uint64_t totalLines() const;

    const CacheGeometry &l1i() const { return _l1i; }
    const CacheGeometry &l1d() const { return _l1d; }
    const CacheGeometry &l2() const { return _l2; }
    const FlushModel &flushModel() const { return _flush; }

    /** @{ Dirty-fraction bookkeeping (write-allocate caches). */
    double dirtyFraction() const { return _dirtyFraction; }
    void setDirtyFraction(double f);

    /**
     * Record workload activity: @p write_fraction of touched lines
     * become dirty; moves the dirty fraction toward that mix.
     */
    void touch(double write_fraction, double turnover = 0.05);
    /** @} */

    /** Flush latency from the current dirty fraction at @p freq. */
    sim::Tick
    flushTime(sim::Frequency freq) const
    {
        return _flush.flushTime(totalLines(), _dirtyFraction, freq);
    }

    /** Perform the flush: contents gone, dirty fraction resets. */
    void flush();

    /** Domain power state: Active until flush(). */
    CacheDomainState state() const { return _state; }

    /**
     * Cycles to service one snoop once the domain is awake: tag
     * access happens in parallel with data-array wake (Sec 5.2.3),
     * then a hit needs a data access.
     */
    static constexpr std::uint64_t kSnoopTagCycles = 4;
    static constexpr std::uint64_t kSnoopDataCycles = 10;

    /** Snoop service time at @p freq; @p hit selects data access. */
    sim::Tick snoopServiceTime(sim::Frequency freq, bool hit) const;

  private:
    CacheGeometry _l1i;
    CacheGeometry _l1d;
    CacheGeometry _l2;
    FlushModel _flush;
    double _dirtyFraction = 0.0;
    CacheDomainState _state = CacheDomainState::Active;
};

} // namespace aw::uarch

#endif // AW_UARCH_CACHE_HH
