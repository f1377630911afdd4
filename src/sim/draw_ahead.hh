/**
 * @file
 * A random stream drawn ahead on a producer thread.
 *
 * Some serial loops consume a stream strictly in order, one value
 * per step, and the stream's sequence depends only on its seed,
 * never on what the loop decides (the fleet balancer's service-time
 * estimates are one). Such a stream can be drawn ahead: a producer
 * thread fills a bounded single-producer/single-consumer ring of
 * chunks, and the loop pops the values in the order they were
 * drawn. The loop sees the sequence inline draws would give, while
 * the drawing runs on another core.
 */

#ifndef AW_SIM_DRAW_AHEAD_HH
#define AW_SIM_DRAW_AHEAD_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

namespace aw::sim {

/**
 * A stream of T drawn ahead on one producer thread.
 *
 * The ring holds kChunks chunks of kChunk values. The producer
 * fills a free chunk and publishes it; the consumer reads a
 * published chunk and releases it. Each side blocks in
 * std::atomic::wait on the other side's counter, so a waiting side
 * burns no core. Values drawn but never read are discarded when the
 * stream is destroyed: the source must be private to the stream.
 *
 * next() may be called from one thread only (the consumer).
 */
template <typename T>
class DrawAhead
{
  public:
    /** Fills its span with the next span.size() values of the
     *  stream, in order. Runs on the producer thread only. */
    using Fill = std::function<void(std::span<T>)>;

    /** Values per chunk. A chunk is the unit of hand-over, so its
     *  size is the latency of the first value and of a stop: 256
     *  lognormal draws take ~45 us, while an 8192-value chunk would
     *  hold up every fleet run by ~1.4 ms. */
    static constexpr std::size_t kChunk = 256;
    /** Chunks in the ring (512 KiB of 8-byte ticks in all). */
    static constexpr std::size_t kChunks = 256;

    /** Start the producer. */
    explicit DrawAhead(Fill fill)
        : _fill(std::move(fill)), _ring(kChunk * kChunks)
    {
        _producer = std::thread([this] { produce(); });
    }

    /** Stop the producer, discarding what it drew ahead, and join
     *  it. Returns even when the producer is blocked on a full
     *  ring. */
    ~DrawAhead()
    {
        _stop.store(true, std::memory_order_release);
        // A full-ring wait sleeps on _released; moving it wakes the
        // producer, which then sees _stop before filling again.
        _released.fetch_add(1, std::memory_order_release);
        _released.notify_one();
        _producer.join();
    }

    DrawAhead(const DrawAhead &) = delete;
    DrawAhead &operator=(const DrawAhead &) = delete;

    /** The next value of the stream. */
    T
    next()
    {
        if (_pos == _end) [[unlikely]]
            advance();
        return *_pos++;
    }

  private:
    /** Release the chunk just read and wait for the next one. */
    void
    advance()
    {
        if (_pos != nullptr) {
            ++_read;
            _released.store(_read, std::memory_order_release);
            _released.notify_one();
        }
        std::uint32_t published =
            _published.load(std::memory_order_acquire);
        while (published == _read) {
            _published.wait(published, std::memory_order_acquire);
            published = _published.load(std::memory_order_acquire);
        }
        _pos = &_ring[(_read % kChunks) * kChunk];
        _end = _pos + kChunk;
    }

    void
    produce()
    {
        for (std::uint32_t filled = 0;; ++filled) {
            std::uint32_t released =
                _released.load(std::memory_order_acquire);
            while (filled - released >= kChunks &&
                   !_stop.load(std::memory_order_acquire)) {
                _released.wait(released, std::memory_order_acquire);
                released = _released.load(std::memory_order_acquire);
            }
            if (_stop.load(std::memory_order_acquire))
                return;
            _fill(std::span<T>(&_ring[(filled % kChunks) * kChunk],
                               kChunk));
            _published.store(filled + 1, std::memory_order_release);
            _published.notify_one();
        }
    }

    Fill _fill;
    std::vector<T> _ring;

    /** Chunks published by the producer / released by the consumer
     *  (both count up and wrap; only their difference matters). */
    std::atomic<std::uint32_t> _published{0};
    std::atomic<std::uint32_t> _released{0};
    std::atomic<bool> _stop{false};

    // Consumer side: chunks fully read, and the cursor in the chunk
    // being read (null before the first read).
    std::uint32_t _read = 0;
    const T *_pos = nullptr;
    const T *_end = nullptr;

    std::thread _producer;
};

} // namespace aw::sim

#endif // AW_SIM_DRAW_AHEAD_HH
