/**
 * @file
 * SSE4.2 CRC32C kernel.
 *
 * This translation unit is compiled with -msse4.2.  It must contain no
 * code that runs before the dispatcher in crc32c.cpp has checked CPU
 * support.
 *
 * One crc32 instruction folds eight bytes but has a three-cycle
 * latency, so a single dependency chain leaves the unit two-thirds
 * idle.  Long inputs are therefore cut into blocks of three equal
 * lanes whose CRCs run side by side from a zero register, then joined:
 * with s(x, n) the register after n zero bytes from state x, the
 * register after lanes A then B is s(A, |B|) ^ B.  s is linear in x,
 * so it is four 256-entry table lookups per join (Mark Adler's
 * crc32c.c uses the same construction).
 */

#include <cstring>

#include <nmmintrin.h>

#include "store/crc32c.hpp"

#if !defined(__SSE4_2__)
#error "crc32c_sse42.cpp must be compiled with -msse4.2"
#endif

namespace emprof::store::detail {

namespace {

constexpr std::size_t kLongLane = 8192;
constexpr std::size_t kShortLane = 256;

/** s(x, lane) for every byte position and value of x. */
struct ZeroShift
{
    uint32_t t[4][256];

    explicit ZeroShift(std::size_t lane) : t{}
    {
        // The register after `lane` zero bytes from each one-bit state;
        // s is linear, so any state is the XOR of its bits' images.
        uint32_t image[32];
        for (int bit = 0; bit < 32; ++bit) {
            uint64_t state = uint32_t{1} << bit;
            for (std::size_t i = 0; i < lane; i += 8)
                state = _mm_crc32_u64(state, 0);
            image[bit] = static_cast<uint32_t>(state);
        }
        for (int k = 0; k < 4; ++k)
            for (uint32_t b = 0; b < 256; ++b)
                for (int bit = 0; bit < 8; ++bit)
                    if ((b >> bit) & 1u)
                        t[k][b] ^= image[8 * k + bit];
    }

    uint32_t
    operator()(uint32_t x) const
    {
        return t[0][x & 0xFFu] ^ t[1][(x >> 8) & 0xFFu] ^
               t[2][(x >> 16) & 0xFFu] ^ t[3][x >> 24];
    }
};

inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Fold every whole block of three @p lane-byte lanes into @p crc. */
inline uint32_t
threeLanes(uint32_t crc, const uint8_t *&p, std::size_t &len,
           std::size_t lane, const ZeroShift &shift)
{
    while (len >= 3 * lane) {
        uint64_t c0 = crc, c1 = 0, c2 = 0;
        const uint8_t *const end = p + lane;
        do {
            c0 = _mm_crc32_u64(c0, load64(p));
            c1 = _mm_crc32_u64(c1, load64(p + lane));
            c2 = _mm_crc32_u64(c2, load64(p + 2 * lane));
            p += 8;
        } while (p != end);
        crc = shift(static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1);
        crc = shift(crc) ^ static_cast<uint32_t>(c2);
        p += 2 * lane;
        len -= 3 * lane;
    }
    return crc;
}

} // namespace

uint32_t
crc32cSse42(uint32_t crc, const void *data, std::size_t len)
{
    static const ZeroShift long_shift(kLongLane);
    static const ZeroShift short_shift(kShortLane);

    const auto *p = static_cast<const uint8_t *>(data);
    crc = ~crc;

    // Head: byte-at-a-time up to an 8-byte boundary.
    while (len != 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
        crc = _mm_crc32_u8(crc, *p++);
        --len;
    }

    crc = threeLanes(crc, p, len, kLongLane, long_shift);
    crc = threeLanes(crc, p, len, kShortLane, short_shift);

    uint64_t c = crc;
    while (len >= 8) {
        c = _mm_crc32_u64(c, load64(p));
        p += 8;
        len -= 8;
    }
    crc = static_cast<uint32_t>(c);
    while (len != 0) {
        crc = _mm_crc32_u8(crc, *p++);
        --len;
    }
    return ~crc;
}

} // namespace emprof::store::detail
