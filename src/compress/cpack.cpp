#include "cpack.hpp"

#include <cstring>

#include "common/log.hpp"
#include "compress/bitstream.hpp"

namespace dice
{

namespace
{

constexpr std::uint32_t kWords = kLineSize / 4;

std::uint32_t
loadWord(const Line &line, std::uint32_t idx)
{
    std::uint32_t w;
    std::memcpy(&w, line.data() + 4 * idx, 4);
    return w;
}

void
storeWord(Line &line, std::uint32_t idx, std::uint32_t w)
{
    std::memcpy(line.data() + 4 * idx, &w, 4);
}

/** FIFO dictionary shared by the encoder and decoder. */
class Dictionary
{
  public:
    /** Find a full match; returns entry index or -1. */
    int
    findFull(std::uint32_t w) const
    {
        for (std::uint32_t i = 0; i < size_; ++i) {
            if (entries_[i] == w)
                return static_cast<int>(i);
        }
        return -1;
    }

    /** Find a 3-byte (bits 31:8) match; returns entry index or -1. */
    int
    findHigh3(std::uint32_t w) const
    {
        for (std::uint32_t i = 0; i < size_; ++i) {
            if ((entries_[i] & 0xFFFFFF00u) == (w & 0xFFFFFF00u))
                return static_cast<int>(i);
        }
        return -1;
    }

    /** Find a halfword (bits 31:16) match; returns entry index or -1. */
    int
    findHigh2(std::uint32_t w) const
    {
        for (std::uint32_t i = 0; i < size_; ++i) {
            if ((entries_[i] & 0xFFFF0000u) == (w & 0xFFFF0000u))
                return static_cast<int>(i);
        }
        return -1;
    }

    std::uint32_t at(std::uint32_t i) const { return entries_[i]; }

    /** FIFO insert. */
    void
    push(std::uint32_t w)
    {
        entries_[pos_] = w;
        pos_ = (pos_ + 1) % CpackCodec::kDictEntries;
        if (size_ < CpackCodec::kDictEntries)
            ++size_;
    }

  private:
    std::uint32_t entries_[CpackCodec::kDictEntries] = {};
    std::uint32_t pos_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace

Encoded
CpackCodec::compress(const Line &line) const
{
    BitWriter bw;
    Dictionary dict;

    for (std::uint32_t i = 0; i < kWords; ++i) {
        const std::uint32_t w = loadWord(line, i);

        if (w == 0) {
            bw.write(0b00, 2);
            continue;
        }
        if ((w & 0xFFFFFF00u) == 0) {
            // zzzx: three zero bytes + literal low byte. (The 4-bit
            // codes are emitted selector-first to match the LSB-first
            // bitstream order the decoder reads.)
            bw.write(0b11, 2);
            bw.write(0b01, 2);
            bw.write(w & 0xFF, 8);
            continue;
        }
        int idx = dict.findFull(w);
        if (idx >= 0) {
            bw.write(0b10, 2);
            bw.write(static_cast<std::uint64_t>(idx), 4);
            continue;
        }
        idx = dict.findHigh3(w);
        if (idx >= 0) {
            // mmmx: 3-byte match + literal low byte.
            bw.write(0b11, 2);
            bw.write(0b10, 2);
            bw.write(static_cast<std::uint64_t>(idx), 4);
            bw.write(w & 0xFF, 8);
            continue;
        }
        idx = dict.findHigh2(w);
        if (idx >= 0) {
            // mmxx: halfword match + literal low half; learns the word.
            bw.write(0b11, 2);
            bw.write(0b00, 2);
            bw.write(static_cast<std::uint64_t>(idx), 4);
            bw.write(w & 0xFFFF, 16);
            dict.push(w);
            continue;
        }
        // xxxx: verbatim; learns the word.
        bw.write(0b01, 2);
        bw.write(w, 32);
        dict.push(w);
    }

    if (bw.byteSize() >= kLineSize)
        return encodeRaw(line);

    Encoded enc;
    enc.algo = CompAlgo::Fpc; // reuse the generic "pattern codec" tag
    enc.mode = 0xCA;          // marks C-PACK streams
    enc.payload = bw.bytes();
    enc.bits = bw.bitSize();
    return enc;
}

std::uint32_t
CpackCodec::compressedBits(const Line &line) const
{
    std::uint32_t bits = 0;
    Dictionary dict;
    for (std::uint32_t i = 0; i < kWords; ++i) {
        const std::uint32_t w = loadWord(line, i);
        if (w == 0) {
            bits += 2;
        } else if ((w & 0xFFFFFF00u) == 0) {
            bits += 12;
        } else if (dict.findFull(w) >= 0) {
            bits += 6;
        } else if (dict.findHigh3(w) >= 0) {
            bits += 16;
        } else if (dict.findHigh2(w) >= 0) {
            bits += 24;
            dict.push(w);
        } else {
            bits += 34;
            dict.push(w);
        }
    }
    return (bits + 7) / 8 >= kLineSize ? 8 * kLineSize : bits;
}

std::uint32_t
CpackCodec::compressedSizeBytes(const Line &line) const
{
    return (compressedBits(line) + 7) / 8;
}

Line
CpackCodec::decompress(const Encoded &enc) const
{
    if (enc.algo == CompAlgo::None)
        return decodeRaw(enc);
    dice_assert(enc.mode == 0xCA, "not a C-PACK stream");

    Line line{};
    BitReader br(enc.payload);
    Dictionary dict;

    for (std::uint32_t i = 0; i < kWords; ++i) {
        const std::uint64_t c2 = br.read(2);
        if (c2 == 0b00) {
            storeWord(line, i, 0);
            continue;
        }
        if (c2 == 0b01) {
            const auto w = static_cast<std::uint32_t>(br.read(32));
            storeWord(line, i, w);
            dict.push(w);
            continue;
        }
        if (c2 == 0b10) {
            const auto idx = static_cast<std::uint32_t>(br.read(4));
            storeWord(line, i, dict.at(idx));
            continue;
        }
        // 0b11: two more bits select the sub-pattern.
        const std::uint64_t c4 = br.read(2);
        if (c4 == 0b00) { // mmxx
            const auto idx = static_cast<std::uint32_t>(br.read(4));
            const auto lo = static_cast<std::uint32_t>(br.read(16));
            const std::uint32_t w =
                (dict.at(idx) & 0xFFFF0000u) | lo;
            storeWord(line, i, w);
            dict.push(w);
        } else if (c4 == 0b01) { // zzzx
            const auto b = static_cast<std::uint32_t>(br.read(8));
            storeWord(line, i, b);
        } else if (c4 == 0b10) { // mmmx
            const auto idx = static_cast<std::uint32_t>(br.read(4));
            const auto b = static_cast<std::uint32_t>(br.read(8));
            storeWord(line, i, (dict.at(idx) & 0xFFFFFF00u) | b);
        } else {
            dice_panic("C-PACK: bad pattern");
        }
    }
    return line;
}

} // namespace dice
