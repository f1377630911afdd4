#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace aw::sim {

namespace {

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed <= 0)
        return std::string();
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    emit("panic", s);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    emit("fatal", s);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    emit("warn", s);
}

} // namespace aw::sim
