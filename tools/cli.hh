/**
 * @file
 * Flag-value parsing shared by awsim and awsweep. A parser
 * takes the whole value or dies with "<flag>: bad value '<value>'":
 * no numeric prefix is taken and no negative number wraps.
 */

#ifndef AW_TOOLS_CLI_HH
#define AW_TOOLS_CLI_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace aw::cli {

/** Parse a non-negative integer flag value or die. */
inline unsigned
parseUnsigned(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' ||
        errno == ERANGE || v > std::numeric_limits<unsigned>::max())
        sim::fatal("%s: bad value '%s'", flag, value);
    return static_cast<unsigned>(v);
}

/** Parse a finite floating-point flag value or die. */
inline double
parseDouble(const char *flag, const char *value)
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(v))
        sim::fatal("%s: bad value '%s'", flag, value);
    return v;
}

/** Parse a 64-bit unsigned flag value or die. */
inline std::uint64_t
parseUint64(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' ||
        errno == ERANGE)
        sim::fatal("%s: bad value '%s'", flag, value);
    return static_cast<std::uint64_t>(v);
}

/** Split a comma-separated list, dropping empty items. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::string item =
            arg.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Parse a comma-separated list with @p parse (a parser above). */
template <typename T>
std::vector<T>
parseList(const char *flag, const char *value,
          T (*parse)(const char *, const char *))
{
    std::vector<T> out;
    for (const auto &item : splitList(value))
        out.push_back(parse(flag, item.c_str()));
    return out;
}

} // namespace aw::cli

#endif // AW_TOOLS_CLI_HH
