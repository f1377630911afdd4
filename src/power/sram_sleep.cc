#include "power/sram_sleep.hh"

#include "sim/logging.hh"

namespace aw::power {

Watts
SramSleepMode::sleepPowerAtSetting(unsigned setting, bool at_pn) const
{
    if (setting >= kSettings)
        sim::panic("SramSleepMode: setting %u out of range", setting);
    const Watts base = at_pn ? _pnPower : _p1Power;
    // Deepest setting == calibrated anchor; each shallower setting
    // retains ~12% more leakage.
    return base * (1.0 + 0.12 * static_cast<double>(setting));
}

} // namespace aw::power
