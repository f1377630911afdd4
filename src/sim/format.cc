#include "sim/format.hh"

#include <charconv>

namespace aw::sim {

std::string
fmtNum(double v)
{
    // "%.10g" needs at most 17 characters (-1.234567891e-308).
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 10);
    return std::string(buf, res.ptr);
}

} // namespace aw::sim
