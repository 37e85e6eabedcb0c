/**
 * @file
 * Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012).
 *
 * The line is split into fixed-size elements; each element is stored as
 * either a small signed delta from one explicit base or a delta from the
 * implicit base zero ("immediate"), selected by a per-element mask bit.
 * Eight modes are tried and the smallest successful encoding wins.
 */

#ifndef DICE_COMPRESS_BDI_HPP
#define DICE_COMPRESS_BDI_HPP

#include <optional>

#include "compress/compressor.hpp"

namespace dice
{

/** BDI codec over 64-B lines. */
class BdiCodec : public Codec
{
  public:
    /** BDI modes; values are stored in the tag's 3 mode bits. */
    enum Mode : std::uint8_t
    {
        Zeros = 0, ///< All-zero line (no payload).
        Rep8 = 1,  ///< One repeated 8-byte value.
        B8D1 = 2,  ///< 8-byte base, 1-byte deltas.
        B8D2 = 3,  ///< 8-byte base, 2-byte deltas.
        B8D4 = 4,  ///< 8-byte base, 4-byte deltas.
        B4D1 = 5,  ///< 4-byte base, 1-byte deltas.
        B4D2 = 6,  ///< 4-byte base, 2-byte deltas.
        B2D1 = 7,  ///< 2-byte base, 1-byte deltas.
        NumModes = 8,
    };

    const char *name() const override { return "BDI"; }

    Encoded compress(const Line &line) const override;
    Line decompress(const Encoded &enc) const override;

    /** Base size in bytes for @p mode (0 for Zeros). */
    static std::uint32_t baseBytes(Mode mode);

    /** Delta size in bytes for @p mode (0 for Zeros/Rep8). */
    static std::uint32_t deltaBytes(Mode mode);

    /** Exact payload size in bits of a successful encoding in @p mode. */
    static std::uint32_t payloadBits(Mode mode);

    /**
     * Attempt to encode @p line in exactly @p mode; nullopt when the
     * line is not representable in that mode.
     */
    std::optional<Encoded> compressInMode(const Line &line,
                                          Mode mode) const;

    /** Representability check only — no bitstream is built. */
    bool representable(const Line &line, Mode mode) const;

    /**
     * Size of compress(line) in bits without materializing anything;
     * 8*kLineSize when no mode succeeds (hot path for the cache).
     */
    std::uint32_t compressedBits(const Line &line) const;

    /** compressedBits() rounded up to whole bytes. */
    std::uint32_t compressedSizeBytes(const Line &line) const override;
};

} // namespace dice

#endif // DICE_COMPRESS_BDI_HPP
