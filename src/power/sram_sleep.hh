/**
 * @file
 * SRAM sleep-mode model (Sec 4.2 / 5.1.2).
 *
 * Cache sleep-mode adds P-type sleep transistors with seven
 * programmable settings plus bit-line float and word-line sleep to
 * the SRAM data arrays. The sleep transistor acts as a linear
 * voltage regulator: its power-conversion efficiency is
 * vout/vin, so lowering the core input voltage toward the retention
 * voltage (C6AE at Pn) raises efficiency and cuts the residual
 * leakage further.
 */

#ifndef AW_POWER_SRAM_SLEEP_HH
#define AW_POWER_SRAM_SLEEP_HH

#include <cstdint>

#include "power/units.hh"
#include "sim/types.hh"

namespace aw::power {

/**
 * Sleep-mode model for one SRAM array (e.g., the combined L1/L2 data
 * arrays of a core).
 *
 * Calibration anchor (paper Sec 5.1.2): a 2.5 MB 22 nm L3 slice with
 * sleep-mode, scaled by capacity to the ~1.1 MB L1+L2 of a Skylake
 * core and by the 0.7x leakage factor to 14 nm, gives ~55 mW in
 * sleep at the P1 voltage and ~40 mW at the Pn voltage.
 */
class SramSleepMode
{
  public:
    /** Number of programmable sleep settings in the reference
     *  implementation. Setting 0 is the deepest (most leakage
     *  reduction); setting 6 is the shallowest. */
    static constexpr unsigned kSettings = 7;

    /**
     * @param capacity_bytes    SRAM capacity under sleep control
     * @param sleep_power_p1    residual power in sleep at P1 voltage
     * @param sleep_power_pn    residual power in sleep at Pn voltage
     */
    SramSleepMode(double capacity_bytes, Watts sleep_power_p1,
                  Watts sleep_power_pn)
        : _bytes(capacity_bytes), _p1Power(sleep_power_p1),
          _pnPower(sleep_power_pn)
    {}

    /** The paper's L1+L2 data-array instance (~1.1 MB, 14 nm). */
    static SramSleepMode
    skylakeL1L2()
    {
        return SramSleepMode(1.1 * 1024 * 1024, milliwatts(55.0),
                             milliwatts(40.0));
    }

    double capacityBytes() const { return _bytes; }

    /** Residual sleep power at the P1 voltage (C6A). */
    Watts sleepPowerAtP1() const { return _p1Power; }

    /** Residual sleep power at the Pn voltage (C6AE). */
    Watts sleepPowerAtPn() const { return _pnPower; }

    /**
     * Residual sleep power at an intermediate setting; setting 0 is
     * the calibrated deepest point, each shallower setting retains
     * ~12% more leakage (linear interpolation up to ~1.7x at the
     * shallowest, spanning the published multi-sleep-mode range).
     *
     * @param at_pn  use the Pn-voltage anchor instead of P1
     */
    Watts
    sleepPowerAtSetting(unsigned setting, bool at_pn = false) const;

    /**
     * LVR-style conversion efficiency of the sleep transistor:
     * vout / vin.
     */
    static constexpr double
    lvrEfficiency(double vout, double vin)
    {
        return vin > 0.0 ? vout / vin : 0.0;
    }

    /** @{ Transition latencies (PMA cycles).
     *  Sleep entry takes 1-3 cycles (we model the conservative 3);
     *  exit takes 2 cycles: cycle 1 ungates the clock, cycle 2
     *  raises the array voltage while tags are accessed in parallel,
     *  which is what hides the wake from the access path. */
    static constexpr std::uint64_t kEntryCycles = 3;
    static constexpr std::uint64_t kExitCycles = 2;
    /** @} */

    /** Area overhead of the sleep transistors over the data array
     *  (same range as power gates; a recent implementation reports
     *  2%). */
    static constexpr Interval kAreaOverhead{0.02, 0.06};

  private:
    double _bytes;
    Watts _p1Power;
    Watts _pnPower;
};

} // namespace aw::power

#endif // AW_POWER_SRAM_SLEEP_HH
