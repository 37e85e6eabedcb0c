#include "compressor.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace dice
{

Encoded
encodeRaw(const Line &line)
{
    Encoded enc;
    enc.algo = CompAlgo::None;
    enc.payload.assign(line.begin(), line.end());
    enc.bits = 8 * kLineSize;
    return enc;
}

Line
decodeRaw(const Encoded &enc)
{
    dice_assert(enc.algo == CompAlgo::None, "decodeRaw on compressed line");
    dice_assert(enc.payload.size() == kLineSize, "raw payload size %u",
                enc.payload.size());
    Line line;
    std::copy(enc.payload.begin(), enc.payload.end(), line.begin());
    return line;
}

} // namespace dice
