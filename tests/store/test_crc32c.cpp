/**
 * @file
 * CRC32C unit tests: known-answer vectors, incremental equivalence,
 * the error-detection property the container leans on (any
 * single-byte change flips the CRC), and a differential test of the
 * SSE4.2 kernel against the slicing-by-8 table kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "store/crc32c.hpp"

namespace emprof::store {
namespace {

uint32_t
oneShot(const void *data, std::size_t len)
{
    return crc32c(0, data, len);
}

using Kernel = uint32_t (*)(uint32_t, const void *, std::size_t);

/** The SSE4.2 kernel, or nullptr when it is not built or not runnable. */
Kernel
hardwareKernel()
{
#if !defined(EMPROF_DISABLE_SIMD)
    if (detail::cpuHasSse42())
        return detail::crc32cSse42;
#endif
    return nullptr;
}

struct NamedKernel
{
    const char *name;
    Kernel fn;
};

/** The dispatched entry point, the table kernel, and the SSE4.2 kernel
 *  when this CPU can run it. */
std::vector<NamedKernel>
kernels()
{
    std::vector<NamedKernel> out{{"dispatched", crc32c},
                                 {"table", detail::crc32cTable}};
    if (const Kernel hw = hardwareKernel())
        out.push_back({"sse42", hw});
    return out;
}

TEST(Crc32c, KnownAnswerVectors)
{
    // RFC 3720 appendix B.4 test vectors (iSCSI uses CRC32C).
    std::vector<uint8_t> ascending(32), descending(32);
    for (std::size_t i = 0; i < 32; ++i) {
        ascending[i] = static_cast<uint8_t>(i);
        descending[i] = static_cast<uint8_t>(31 - i);
    }
    const std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xFF);
    for (const auto &k : kernels()) {
        SCOPED_TRACE(k.name);
        EXPECT_EQ(k.fn(0, "", 0), 0u);
        EXPECT_EQ(k.fn(0, "123456789", 9), 0xE3069283u);
        EXPECT_EQ(k.fn(0, zeros.data(), zeros.size()), 0x8A9136AAu);
        EXPECT_EQ(k.fn(0, ones.data(), ones.size()), 0x62A8AB43u);
        EXPECT_EQ(k.fn(0, ascending.data(), 32), 0x46DD794Eu);
        EXPECT_EQ(k.fn(0, descending.data(), 32), 0x113FDB5Cu);
    }
}

TEST(Crc32c, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> data(301);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31 + 7);

    const uint32_t whole = oneShot(data.data(), data.size());
    // Split at every position, including 0 and size().
    for (std::size_t split = 0; split <= data.size(); split += 17) {
        uint32_t crc = crc32c(0, data.data(), split);
        crc = crc32c(crc, data.data() + split, data.size() - split);
        EXPECT_EQ(crc, whole) << "split at " << split;
    }
}

TEST(Crc32c, DetectsEverySingleByteChange)
{
    std::string data = "EMCAP chunk payload exercising the table slices";
    const uint32_t good = oneShot(data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        for (const uint8_t delta : {0x01, 0x80, 0xFF}) {
            std::string bad = data;
            bad[i] = static_cast<char>(bad[i] ^ delta);
            EXPECT_NE(oneShot(bad.data(), bad.size()), good)
                << "byte " << i << " xor " << int(delta);
        }
    }
}

TEST(Crc32c, AlignmentIndependent)
{
    // The slicing-by-8 loop has a byte-at-a-time head; starting at any
    // misalignment must give the same digest for the same bytes.
    std::vector<uint8_t> arena(128 + 8);
    for (std::size_t i = 0; i < arena.size(); ++i)
        arena[i] = static_cast<uint8_t>(i ^ 0x5A);
    const uint32_t ref = oneShot(arena.data(), 64);
    for (std::size_t shift = 1; shift < 8; ++shift) {
        std::memmove(arena.data() + shift, arena.data(), 64);
        EXPECT_EQ(oneShot(arena.data() + shift, 64), ref)
            << "shift " << shift;
        std::memmove(arena.data(), arena.data() + shift, 64);
    }
}

// --- SSE4.2 kernel vs table kernel ------------------------------------

std::vector<uint8_t>
randomBytes(std::size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<uint8_t> bytes(n);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng());
    return bytes;
}

TEST(Crc32cKernels, HardwareMatchesTableOnEveryLengthAndAlignment)
{
    const Kernel hw = hardwareKernel();
    if (hw == nullptr)
        GTEST_SKIP() << "SSE4.2 kernel not built or CPU lacks SSE4.2";
    const auto bytes = randomBytes(1024 + 8, 0xC0FFEEu);
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const uint8_t *p = bytes.data() + align;
            ASSERT_EQ(hw(0, p, len), detail::crc32cTable(0, p, len))
                << "align " << align << " len " << len;
            // A nonzero running value must carry through both alike.
            ASSERT_EQ(hw(0x9E3779B9u, p, len),
                      detail::crc32cTable(0x9E3779B9u, p, len))
                << "align " << align << " len " << len;
        }
    }
}

TEST(Crc32cKernels, HardwareMatchesTableAcrossLaneBlocks)
{
    // Lengths around the three-lane block sizes (3 x 256, 3 x 8192)
    // and past them, so every join path runs.
    const Kernel hw = hardwareKernel();
    if (hw == nullptr)
        GTEST_SKIP() << "SSE4.2 kernel not built or CPU lacks SSE4.2";
    const auto bytes = randomBytes((std::size_t{1} << 17) + 8, 0xBEEFu);
    std::mt19937 rng(17);
    std::vector<std::size_t> lengths;
    for (const std::size_t block : {std::size_t{768}, std::size_t{24576}})
        for (std::size_t m = 1; m <= 4; ++m)
            for (std::size_t d = 0; d <= 18; ++d)
                lengths.push_back(block * m + d - 9);
    for (int i = 0; i < 64; ++i)
        lengths.push_back(rng() % (std::size_t{1} << 17));
    lengths.push_back(std::size_t{1} << 17);
    for (const std::size_t len : lengths) {
        for (std::size_t align = 0; align < 8; ++align) {
            const uint8_t *p = bytes.data() + align;
            ASSERT_EQ(hw(0, p, len), detail::crc32cTable(0, p, len))
                << "align " << align << " len " << len;
        }
    }
}

TEST(Crc32cKernels, ChainedCallsMatchOneShotOnEveryKernel)
{
    const auto bytes = randomBytes(70000, 0x5EEDu);
    const uint32_t whole = detail::crc32cTable(0, bytes.data(), bytes.size());
    std::mt19937 rng(99);
    for (const auto &k : kernels()) {
        SCOPED_TRACE(k.name);
        for (int round = 0; round < 200; ++round) {
            // Split at 1..5 random points, then chain the pieces.
            std::vector<std::size_t> cuts{0, bytes.size()};
            const int extra = 1 + static_cast<int>(rng() % 5);
            for (int c = 0; c < extra; ++c)
                cuts.push_back(rng() % (bytes.size() + 1));
            std::sort(cuts.begin(), cuts.end());
            uint32_t crc = 0;
            for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
                crc = k.fn(crc, bytes.data() + cuts[c], cuts[c + 1] - cuts[c]);
            ASSERT_EQ(crc, whole) << "round " << round;
        }
    }
}

} // namespace
} // namespace emprof::store
