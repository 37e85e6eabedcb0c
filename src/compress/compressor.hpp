/**
 * @file
 * Common types and the abstract interface for line compressors.
 *
 * DICE uses low-latency compressors (FPC + BDI, with ZCA as the trivial
 * all-zero special case). Each codec produces a real encoded bitstream;
 * the byte size of that stream — plus per-line metadata kept in the tag,
 * which the TAD layout accounts for separately — is what the cache model
 * consumes.
 *
 * The cache model's hot path never needs the bitstream itself, only its
 * size, so every codec also implements compressedSizeBytes(): a
 * size-only route that touches no heap memory. Encoded payloads are
 * stored in a fixed-capacity inline buffer (PayloadBuf) for the same
 * reason: compressing a line performs zero heap allocations.
 */

#ifndef DICE_COMPRESS_COMPRESSOR_HPP
#define DICE_COMPRESS_COMPRESSOR_HPP

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/log.hpp"
#include "common/types.hpp"

namespace dice
{

/** Raw bytes of one 64-B cache line. */
using Line = std::array<std::uint8_t, kLineSize>;

/** Raw bytes of a pair of adjacent lines (128 B), for pair compression. */
using LinePair = std::array<std::uint8_t, 2 * kLineSize>;

/**
 * Upper bound on any encoded payload: a raw 64-B line, or the joint
 * stream of a shared-base pair (<= 72 B for BDI's largest delta mode).
 */
inline constexpr std::uint32_t kMaxPayloadBytes = 2 * kLineSize;

/**
 * Fixed-capacity inline byte buffer for encoded payloads. A drop-in
 * for the small-vector uses the codecs need (append, assign, iterate)
 * without ever touching the heap.
 */
class PayloadBuf
{
  public:
    PayloadBuf() = default;

    std::uint8_t *data() { return bytes_.data(); }
    const std::uint8_t *data() const { return bytes_.data(); }
    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    void clear() { size_ = 0; }

    void
    push_back(std::uint8_t b)
    {
        dice_assert(size_ < kMaxPayloadBytes, "PayloadBuf overflow");
        bytes_[size_++] = b;
    }

    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        for (; first != last; ++first)
            push_back(static_cast<std::uint8_t>(*first));
    }

    std::uint8_t &operator[](std::uint32_t i) { return bytes_[i]; }
    const std::uint8_t &operator[](std::uint32_t i) const
    {
        return bytes_[i];
    }

    const std::uint8_t *begin() const { return data(); }
    const std::uint8_t *end() const { return data() + size_; }

  private:
    std::array<std::uint8_t, kMaxPayloadBytes> bytes_;
    std::uint32_t size_ = 0;
};

/** Compression algorithm identifiers (stored in tag metadata). */
enum class CompAlgo : std::uint8_t
{
    None,   ///< Stored uncompressed (64 B).
    Zca,    ///< Zero-content line (data size 0; tag bit suffices).
    Fpc,    ///< Frequent Pattern Compression.
    Bdi,    ///< Base-Delta-Immediate (mode in the meta bits).
};

/** An encoded line: algorithm, mode metadata, and the bitstream. */
struct Encoded
{
    CompAlgo algo = CompAlgo::None;
    /** Algorithm-specific mode (BDI mode index; unused for FPC/ZCA). */
    std::uint8_t mode = 0;
    /**
     * Side metadata that lives in the tag's metadata bits rather than
     * the data payload (the BDI immediate mask). Not charged against
     * the payload size, matching the paper's size accounting where
     * compression metadata occupies tag bits.
     */
    std::uint64_t meta = 0;
    /** The encoded payload. Empty for ZCA; raw line for None. */
    PayloadBuf payload;
    /** Exact encoded size in bits (payload only, excluding tag/meta). */
    std::uint32_t bits = 0;

    /** Payload size rounded up to whole bytes. */
    std::uint32_t sizeBytes() const { return (bits + 7) / 8; }
};

/** Interface implemented by every codec. */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Human-readable codec name. */
    virtual const char *name() const = 0;

    /**
     * Compress @p line. Codecs that cannot represent the line return an
     * Encoded with algo == CompAlgo::None and bits == 8 * kLineSize.
     */
    virtual Encoded compress(const Line &line) const = 0;

    /** Invert compress(); @p enc must come from the same codec. */
    virtual Line decompress(const Encoded &enc) const = 0;

    /**
     * Byte size of compress(line)'s payload without materializing a
     * bitstream and without heap allocation — the route the cache
     * model's install path takes. Always equals
     * compress(line).sizeBytes().
     */
    virtual std::uint32_t compressedSizeBytes(const Line &line) const = 0;
};

/** Convenience: an Encoded that stores @p line verbatim. */
Encoded encodeRaw(const Line &line);

/** Convenience: recover the raw line from a CompAlgo::None encoding. */
Line decodeRaw(const Encoded &enc);

} // namespace dice

#endif // DICE_COMPRESS_COMPRESSOR_HPP
