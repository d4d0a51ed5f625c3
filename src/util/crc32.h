/**
 * @file
 * CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for the
 * durable-storage framing and the weight-blob checksums.
 *
 * Software slicing-by-8 implementation: deterministic on every
 * platform, eight table lookups per eight bytes with no dependence
 * between them, and the exact polynomial everything from zlib to
 * Ethernet uses, so golden values can be checked against any
 * reference.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace insitu {

/**
 * CRC-32 of @p n raw bytes at @p data. Pass a previous return value
 * as @p seed to checksum a buffer in pieces:
 * `crc32_bytes(b, nb, crc32_bytes(a, na)) == crc32_bytes(ab, na + nb)`.
 *
 * Deliberately not an overload of crc32(): in an overload set,
 * `crc32(char_ptr, seed)` would silently prefer this signature (a
 * pointer conversion beats string_view's user-defined one) and read
 * `seed` bytes off the end of the buffer.
 */
uint32_t crc32_bytes(const void* data, size_t n, uint32_t seed = 0);

/** CRC-32 of @p bytes, chainable through @p seed like crc32_bytes. */
inline uint32_t
crc32(std::string_view bytes, uint32_t seed = 0)
{
    return crc32_bytes(bytes.data(), bytes.size(), seed);
}

} // namespace insitu
