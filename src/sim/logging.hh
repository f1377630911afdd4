/**
 * @file
 * Error and status reporting in the spirit of gem5's base/logging.hh.
 *
 * - panic():  an internal invariant was violated (a library bug);
 *             aborts so a debugger/core dump can capture state.
 * - fatal():  the simulation cannot continue due to a user error
 *             (bad configuration, invalid argument); exits cleanly.
 * - warn():   something is suspicious but the run continues.
 *
 * All functions take printf-style format strings. strprintf() is the
 * underlying printf-into-std::string helper, exposed for reuse.
 */

#ifndef AW_SIM_LOGGING_HH
#define AW_SIM_LOGGING_HH

#include <cstdarg>
#include <string>

namespace aw::sim {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list args);

/** Report an internal bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious condition; the run continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace aw::sim

#endif // AW_SIM_LOGGING_HH
