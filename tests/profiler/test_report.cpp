/**
 * @file
 * makeReport's percentiles come from selection, not a sort.  They must
 * equal dsp::percentile over a sorted copy bit for bit, for every input
 * size and duplicate pattern, and the sums must stay in event order.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "dsp/series_ops.hpp"
#include "profiler/report.hpp"

namespace emprof::profiler {
namespace {

uint64_t
bits(double x)
{
    uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

std::vector<StallEvent>
eventsWithCycles(const std::vector<double> &cycles)
{
    std::vector<StallEvent> events(cycles.size());
    for (std::size_t i = 0; i < cycles.size(); ++i)
        events[i].stallCycles = cycles[i];
    return events;
}

void
expectSortReference(const std::vector<double> &cycles,
                    const std::string &what)
{
    SCOPED_TRACE(what + " n=" + std::to_string(cycles.size()));
    const ProfileReport report =
        makeReport(eventsWithCycles(cycles), 40e6, 1e9, 1000000);
    if (cycles.empty()) {
        EXPECT_EQ(bits(report.medianStallCycles), bits(0.0));
        EXPECT_EQ(bits(report.maxStallCycles), bits(0.0));
        EXPECT_EQ(bits(report.avgStallCycles), bits(0.0));
        return;
    }
    EXPECT_EQ(bits(report.medianStallCycles),
              bits(dsp::percentile(cycles, 50.0)));
    EXPECT_EQ(bits(report.p95StallCycles),
              bits(dsp::percentile(cycles, 95.0)));
    EXPECT_EQ(bits(report.p99StallCycles),
              bits(dsp::percentile(cycles, 99.0)));
    EXPECT_EQ(bits(report.maxStallCycles),
              bits(dsp::percentile(cycles, 100.0)));
    // Sums run over the events in their original order.
    double total = 0.0;
    for (const double c : cycles)
        total += c;
    EXPECT_EQ(bits(report.totalStallCycles), bits(total));
    EXPECT_EQ(bits(report.avgStallCycles), bits(dsp::mean(cycles)));
}

TEST(ReportSelection, TinyInputs)
{
    expectSortReference({}, "empty");
    expectSortReference({312.5}, "one");
    expectSortReference({400.0, 200.0}, "two descending");
    expectSortReference({200.0, 400.0}, "two ascending");
    for (const auto &three : std::vector<std::vector<double>>{
             {1.0, 2.0, 3.0},
             {3.0, 2.0, 1.0},
             {2.0, 3.0, 1.0},
             {2.0, 2.0, 1.0},
             {1.0, 3.0, 3.0}})
        expectSortReference(three, "three");
}

TEST(ReportSelection, AllEqual)
{
    for (const std::size_t n : {2u, 5u, 100u, 1001u})
        expectSortReference(std::vector<double>(n, 275.0), "all equal");
}

TEST(ReportSelection, HeavyDuplicates)
{
    // The shape of real reports: durations are whole samples, so
    // latencies take a handful of values with a long tail.
    dsp::Rng rng(0xd0b1e);
    for (const std::size_t n : {4u, 99u, 100u, 101u, 2000u, 20011u}) {
        std::vector<double> cycles(n);
        for (auto &c : cycles)
            c = 25.0 * static_cast<double>(rng.chance(0.01)
                                               ? 100
                                               : 8 + rng.below(7));
        expectSortReference(cycles, "duplicates");
    }
}

TEST(ReportSelection, RandomInputs)
{
    dsp::Rng rng(0x5e1ec7);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.below(trial < 100 ? 300 : 5000);
        std::vector<double> cycles(n);
        for (auto &c : cycles)
            c = rng.uniform(0.0, 1e4);
        expectSortReference(cycles, "random trial " +
                                        std::to_string(trial));
    }
}

} // namespace
} // namespace emprof::profiler
