/**
 * @file
 * Host-side measurement helpers of the benchmark: wall and CPU
 * clocks, the caller-vs-worker CPU split of one call, resident
 * memory, and the FNV-1a digest the output checks pin.
 *
 * Everything here measures the simulator from outside: the benchmark
 * wraps calls into a layer's public functions with these clocks and
 * never instruments the library itself.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <string_view>

namespace perfbench {

/** Seconds on the monotonic clock (CLOCK_MONOTONIC, the clock
 *  Python's time.monotonic() reads, so a parent process can compare
 *  its own timestamps against this one). */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
cpuClock(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** CPU seconds consumed by the calling thread. */
inline double threadCpu() { return cpuClock(CLOCK_THREAD_CPUTIME_ID); }

/** CPU seconds consumed by every thread of the process. */
inline double processCpu() { return cpuClock(CLOCK_PROCESS_CPUTIME_ID); }

/**
 * Wall time of one call and its CPU time, split between the calling
 * thread and all other threads of the process. A caller that hands
 * work to a pool and blocks on a condition variable burns no CPU
 * while it waits, so callerCpuS is its own serial work and otherCpuS
 * is what the workers did.
 */
struct CpuSplit
{
    double wallS = 0.0;
    double callerCpuS = 0.0;
    double otherCpuS = 0.0;
};

template <class Fn>
CpuSplit
measureSplit(Fn &&fn)
{
    const double w0 = wallNow();
    const double t0 = threadCpu();
    const double p0 = processCpu();
    fn();
    CpuSplit s;
    s.wallS = wallNow() - w0;
    s.callerCpuS = threadCpu() - t0;
    s.otherCpuS = processCpu() - p0 - s.callerCpuS;
    return s;
}

/** Current resident set in MiB (VmRSS; 0 if unavailable). */
inline double
rssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmRSS:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

/** 64-bit FNV-1a over bytes and the bit patterns of numbers. */
class Digest
{
  public:
    void
    add(std::string_view bytes)
    {
        for (const unsigned char c : bytes) {
            _h ^= c;
            _h *= 0x100000001b3ULL;
        }
    }

    void
    addU64(std::uint64_t v)
    {
        char b[sizeof v];
        std::memcpy(b, &v, sizeof v);
        add(std::string_view(b, sizeof v));
    }

    void
    addF64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof v);
        addU64(bits);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(_h));
        return buf;
    }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
