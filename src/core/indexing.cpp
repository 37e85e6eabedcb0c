#include "indexing.hpp"

#include "common/log.hpp"

namespace dice
{

const char *
indexSchemeName(IndexScheme scheme)
{
    switch (scheme) {
      case IndexScheme::TSI:
        return "TSI";
      case IndexScheme::NSI:
        return "NSI";
      case IndexScheme::BAI:
        return "BAI";
      default:
        return "?";
    }
}

std::uint64_t
SetIndexer::set(LineAddr line, IndexScheme scheme) const
{
    switch (scheme) {
      case IndexScheme::TSI:
        return tsi(line);
      case IndexScheme::NSI:
        return nsi(line);
      case IndexScheme::BAI:
        return bai(line);
      default:
        dice_panic("bad index scheme");
    }
}

} // namespace dice
