/**
 * @file
 * The keep-newest record ring the telemetry observers share.
 *
 * A ring is a plain vector that grows with the run: while it holds
 * fewer than `capacity` records the next one is appended, and once
 * full the next one overwrites slot `emitted % capacity`, the
 * oldest. So a run pays memory for the records it makes, never more
 * than `capacity` of them, and the hot path allocates only while the
 * ring fills (at most log2(capacity) + 1 times, with each step's
 * capacity clamped to the ceiling).
 */

#ifndef AW_ANALYSIS_RING_HH
#define AW_ANALYSIS_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace aw::analysis {

/** The slot record number @p emitted lands in. @p ring must hold
 *  exactly min(emitted, capacity) records. */
template <class T>
T &
ringSlot(std::vector<T> &ring, std::uint64_t emitted,
         std::size_t capacity)
{
    if (ring.size() < capacity) {
        if (ring.size() == ring.capacity()) {
            ring.reserve(std::min(
                capacity, std::max<std::size_t>(1, 2 * ring.size())));
        }
        return ring.emplace_back();
    }
    return ring[emitted % capacity];
}

/** Rotate @p ring, which took @p emitted records, to oldest-first
 *  and move it out; @p ring is left empty. */
template <class T>
std::vector<T>
drainRing(std::vector<T> &ring, std::uint64_t emitted)
{
    if (!ring.empty()) {
        std::rotate(ring.begin(),
                    ring.begin() + static_cast<std::ptrdiff_t>(
                                       emitted % ring.size()),
                    ring.end());
    }
    std::vector<T> out = std::move(ring);
    ring.clear();
    return out;
}

} // namespace aw::analysis

#endif // AW_ANALYSIS_RING_HH
