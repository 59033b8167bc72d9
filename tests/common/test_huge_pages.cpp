/**
 * @file
 * Huge-page advice helper: the 2 MiB-aligned interior it advises
 * (nothing below 2 MiB, starts and ends rounded inward, null and empty
 * ranges safe), and a real advised buffer that keeps its contents.
 */

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/huge_pages.hpp"

using namespace emprof;
using common::hugePageInterior;
using common::kHugePageBytes;

namespace {

/** A fake address; hugePageInterior never dereferences it. */
const void *
at(uintptr_t address)
{
    return reinterpret_cast<const void *>(address);
}

constexpr uintptr_t kBase = uintptr_t{1} << 40; // 2 MiB aligned

} // namespace

TEST(HugePages, NothingBelowTwoMiB)
{
    EXPECT_EQ(hugePageInterior(at(kBase), kHugePageBytes - 1).bytes(), 0u);
    EXPECT_EQ(hugePageInterior(at(kBase), 4096).bytes(), 0u);
    const auto exact = hugePageInterior(at(kBase), kHugePageBytes);
    EXPECT_EQ(exact.begin, kBase);
    EXPECT_EQ(exact.end, kBase + kHugePageBytes);
}

TEST(HugePages, UnalignedStartAndEndRoundInward)
{
    // 16 bytes past a boundary (a typical mmap'd malloc block) and a
    // length that ends mid-block: both ends move inward.
    const auto r = hugePageInterior(at(kBase + 16), 5 * kHugePageBytes);
    EXPECT_EQ(r.begin, kBase + kHugePageBytes);
    EXPECT_EQ(r.end, kBase + 5 * kHugePageBytes);

    const auto end_only = hugePageInterior(at(kBase), 3 * kHugePageBytes + 1);
    EXPECT_EQ(end_only.begin, kBase);
    EXPECT_EQ(end_only.end, kBase + 3 * kHugePageBytes);

    // Just over 2 MiB but straddling a boundary: no whole block fits.
    EXPECT_EQ(hugePageInterior(at(kBase + 4096), kHugePageBytes + 4096)
                  .bytes(),
              0u);
    // A range that ends exactly on the far boundary keeps that block.
    const auto to_edge =
        hugePageInterior(at(kBase + 4096), 2 * kHugePageBytes - 4096);
    EXPECT_EQ(to_edge.begin, kBase + kHugePageBytes);
    EXPECT_EQ(to_edge.end, kBase + 2 * kHugePageBytes);
}

TEST(HugePages, NullAndEmptyAreSafe)
{
    EXPECT_EQ(hugePageInterior(nullptr, 0).bytes(), 0u);
    EXPECT_EQ(hugePageInterior(nullptr, 8 * kHugePageBytes).bytes(), 0u);
    EXPECT_EQ(hugePageInterior(at(kBase), 0).bytes(), 0u);
    EXPECT_EQ(hugePageInterior(at(UINTPTR_MAX - 15), kHugePageBytes).bytes(),
              0u);
    common::adviseHugePages(nullptr, 0);
    common::adviseHugePages(nullptr, 8 * kHugePageBytes);
    int local = 0;
    common::adviseHugePages(&local, 0);
    common::adviseHugePages(&local, sizeof(local));
}

TEST(HugePages, AdvisedBufferKeepsItsContents)
{
    std::vector<uint32_t> buffer(3 * kHugePageBytes / sizeof(uint32_t));
    for (std::size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = static_cast<uint32_t>(i * 2654435761u);
    common::adviseHugePages(buffer.data(), buffer.size() * sizeof(uint32_t));
    for (std::size_t i = 0; i < buffer.size(); ++i)
        ASSERT_EQ(buffer[i], static_cast<uint32_t>(i * 2654435761u)) << i;
}
