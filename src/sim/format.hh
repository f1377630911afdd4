/**
 * @file
 * Number rendering shared by every artifact emitter.
 */

#ifndef AW_SIM_FORMAT_HH
#define AW_SIM_FORMAT_HH

#include <string>

namespace aw::sim {

/**
 * Schedule-independent double rendering: exactly printf's "%.10g"
 * (std::to_chars in general format at precision 10, which the
 * standard defines as that printf conversion), without the format
 * string parse and the va_list round trip.
 */
std::string fmtNum(double v);

} // namespace aw::sim

#endif // AW_SIM_FORMAT_HH
