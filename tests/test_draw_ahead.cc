/**
 * @file
 * Tests for sim::DrawAhead, the producer-thread ring the fleet
 * balancer draws its service-time estimates from: the values it
 * hands out are the inline draws, in order, at every length around
 * the chunk and ring boundaries, and destroying it never hangs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "sim/draw_ahead.hh"
#include "sim/random.hh"

namespace {

using namespace aw;

/** The stream under test: lognormal draws, as the service models
 *  make them (the engine output consumed varies per draw). */
double
drawOne(sim::Rng &rng)
{
    return rng.lognormal(2.0, 0.9);
}

std::vector<double>
inlineDraws(std::uint64_t seed, std::size_t n)
{
    sim::Rng rng(seed);
    std::vector<double> out(n);
    for (double &v : out)
        v = drawOne(rng);
    return out;
}

using Ahead = sim::DrawAhead<double>;

std::vector<double>
drawnAhead(std::uint64_t seed, std::size_t n)
{
    sim::Rng rng(seed);
    Ahead ahead([&rng](std::span<double> out) {
        for (double &v : out)
            v = drawOne(rng);
    });
    std::vector<double> out(n);
    for (double &v : out)
        v = ahead.next();
    return out;
}

TEST(DrawAhead, SequenceEqualsInlineDraws)
{
    // Lengths on both sides of a chunk and of a full ring, and many
    // times around it. Each stream is destroyed with values drawn
    // but unread, as the balancer drops its own.
    constexpr std::size_t c = Ahead::kChunk;
    constexpr std::size_t ring = Ahead::kChunk * Ahead::kChunks;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, c - 1, c, c + 1, ring - 1,
          ring, ring + 1, 10 * ring + c / 2 + 1}) {
        SCOPED_TRACE(testing::Message() << "length " << n);
        const std::uint64_t seed = 7 + n;
        EXPECT_EQ(drawnAhead(seed, n), inlineDraws(seed, n));
    }
}

TEST(DrawAhead, DestroyingWhileTheProducerWaitsOnAFullRingReturns)
{
    // Nobody reads: the producer fills every chunk of the ring, then
    // waits for one to be released. Destruction must wake it, and
    // it must not have drawn past the ring.
    constexpr std::size_t kRing =
        sim::DrawAhead<int>::kChunk * sim::DrawAhead<int>::kChunks;
    std::atomic<std::size_t> drawn{0};
    std::optional<sim::DrawAhead<int>> ahead;
    ahead.emplace([&drawn](std::span<int> out) {
        for (int &v : out)
            v = 1;
        drawn.fetch_add(out.size());
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (drawn.load() < kRing &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(drawn.load(), kRing);
    // Give the producer time to block on the full ring.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(drawn.load(), kRing);

    auto destroyed =
        std::async(std::launch::async, [&ahead] { ahead.reset(); });
    if (destroyed.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "DrawAhead destructor hung\n");
        std::_Exit(1); // a hung join cannot be unwound
    }
    EXPECT_EQ(drawn.load(), kRing);
}

} // namespace
