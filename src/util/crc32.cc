#include "util/crc32.h"

#include <array>

namespace insitu {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic byte table, and
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so one
/// lookup per table folds eight input bytes at once.
constexpr Tables
make_tables()
{
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

constexpr Tables kTables = make_tables();

/// Four bytes as a little-endian word, on any host byte order.
inline uint32_t
load_le32(const unsigned char* p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // namespace

uint32_t
crc32_bytes(const void* data, size_t n, uint32_t seed)
{
    const auto* p = static_cast<const unsigned char*>(data);
    const auto& t = kTables;
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        const uint32_t lo = c ^ load_le32(p);
        const uint32_t hi = load_le32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace insitu
