/**
 * @file
 * Unit tests for the EMPROF facade.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "dsp/rng.hpp"
#include "profiler/dip_detector.hpp"
#include "profiler/normalizer.hpp"
#include "profiler/profiler.hpp"

namespace emprof::profiler {
namespace {

/** Synthesise a magnitude signal with planted stalls. */
dsp::TimeSeries
makeSignal(double rate_hz, const std::vector<std::pair<std::size_t,
                                                       std::size_t>> &dips,
           std::size_t total, double busy = 1.0, double stall = 0.2)
{
    dsp::TimeSeries s;
    s.sampleRateHz = rate_hz;
    s.samples.assign(total, static_cast<float>(busy));
    dsp::Rng rng(5);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    for (const auto &[start, len] : dips) {
        for (std::size_t i = start; i < start + len && i < total; ++i)
            s.samples[i] = static_cast<float>(stall);
    }
    return s;
}

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

EmProfConfig
testConfig(double rate = 40e6)
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = rate;
    cfg.normWindowSeconds = 20e-6;
    return cfg;
}

TEST(EmProf, DetectsPlantedStallsWithCorrectDurations)
{
    // 10 dips of 8 samples each at 40 MHz = 200 ns = 200 cycles.
    std::vector<std::pair<std::size_t, std::size_t>> dips;
    for (std::size_t i = 0; i < 10; ++i)
        dips.push_back({1000 + i * 100, 8});
    const auto sig = makeSignal(40e6, dips, 5000);
    const auto result = EmProf::analyze(sig, testConfig());
    ASSERT_EQ(result.report.totalEvents, 10u);
    for (const auto &ev : result.events) {
        EXPECT_NEAR(ev.durationNs, 200.0, 1e-6);
        EXPECT_NEAR(ev.stallCycles, 200.0, 1e-6);
        EXPECT_EQ(ev.kind, StallKind::LlcMiss);
    }
}

TEST(EmProf, ClassifiesRefreshCoincidentStalls)
{
    // One 2.5 us stall among ordinary 200 ns stalls.
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {1000, 8}, {2000, 100}, {4000, 8}}; // 100 samples = 2.5 us
    const auto sig = makeSignal(40e6, dips, 8000);
    const auto result = EmProf::analyze(sig, testConfig());
    ASSERT_EQ(result.report.totalEvents, 3u);
    EXPECT_EQ(result.report.refreshEvents, 1u);
    EXPECT_EQ(result.report.missEvents, 2u);
}

TEST(EmProf, DurationThresholdRejectsOnChipStalls)
{
    // 1-sample dips (25 ns) are below the 60 ns threshold.
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {1000, 1}, {1100, 1}, {1200, 8}};
    const auto sig = makeSignal(40e6, dips, 3000);
    const auto result = EmProf::analyze(sig, testConfig());
    EXPECT_EQ(result.report.totalEvents, 1u);
}

TEST(EmProf, ReportPercentagesAddUp)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {1000, 40}, {3000, 40}};
    const auto sig = makeSignal(40e6, dips, 10000);
    const auto result = EmProf::analyze(sig, testConfig());
    // 80 of 10000 samples stalled -> 0.8 %.
    EXPECT_NEAR(result.report.stallPercent, 0.8, 0.05);
    EXPECT_NEAR(result.report.executionCycles, 250000.0, 1.0);
}

TEST(EmProf, StreamingMatchesBatch)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips = {
        {500, 8}, {900, 12}, {1500, 6}};
    const auto sig = makeSignal(40e6, dips, 3000);

    const auto batch = EmProf::analyze(sig, testConfig());

    EmProfConfig cfg = testConfig();
    EmProf streaming(cfg);
    for (float x : sig.samples)
        streaming.push(x);
    const auto stream_result = streaming.finish();

    ASSERT_EQ(batch.events.size(), stream_result.events.size());
    for (std::size_t i = 0; i < batch.events.size(); ++i) {
        EXPECT_EQ(batch.events[i].startSample,
                  stream_result.events[i].startSample);
        EXPECT_EQ(batch.events[i].endSample,
                  stream_result.events[i].endSample);
    }
}

TEST(EmProf, AnalyzeUsesSeriesSampleRate)
{
    // Same dip, half the sample rate -> twice the reported cycles.
    std::vector<std::pair<std::size_t, std::size_t>> dips = {{1000, 8}};
    auto sig = makeSignal(20e6, dips, 3000);
    const auto result = EmProf::analyze(sig, testConfig(40e6));
    ASSERT_EQ(result.events.size(), 1u);
    EXPECT_NEAR(result.events[0].stallCycles, 400.0, 1e-6);
}

TEST(EmProf, LatencyStatisticsOrdered)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips;
    dsp::Rng rng(17);
    std::size_t pos = 500;
    for (int i = 0; i < 200; ++i) {
        dips.push_back({pos, 4 + rng.below(20)});
        pos += 150;
    }
    const auto sig = makeSignal(40e6, dips, pos + 500);
    const auto result = EmProf::analyze(sig, testConfig());
    const auto &r = result.report;
    EXPECT_LE(r.medianStallCycles, r.p95StallCycles);
    EXPECT_LE(r.p95StallCycles, r.p99StallCycles);
    EXPECT_LE(r.p99StallCycles, r.maxStallCycles);
    EXPECT_GT(r.avgStallCycles, 0.0);
}

TEST(EmProf, ConfigDerivedQuantities)
{
    EmProfConfig cfg;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 1e-3;
    cfg.minStallNs = 60.0;
    EXPECT_EQ(cfg.normWindowSamples(), 40000u);
    // The noise-robustness floor dominates at low sample rates...
    EXPECT_EQ(cfg.minDurationSamples(), cfg.minDurationFloorSamples);
    // ...and the nanosecond threshold dominates at high ones.
    cfg.sampleRateHz = 160e6;
    EXPECT_EQ(cfg.minDurationSamples(), 10u);
    cfg.minDurationFloorSamples = 1;
    cfg.sampleRateHz = 40e6;
    EXPECT_EQ(cfg.minDurationSamples(), 2u);
}

TEST(EmProf, FinishFlushesTrailingDipLikeTheDetector)
{
    // The signal ends 40 samples into a dip.  finish() hands the open
    // dip to the stitcher's flush; pin that flush against a bare
    // DipDetector::finish() over the same normalised samples, so the
    // end-of-input rule cannot drift with the stitcher.
    const EmProfConfig cfg = testConfig();
    const auto sig = makeSignal(40e6, {{3000, 20}, {9960, 40}}, 10000);
    const auto result = EmProf::analyze(sig, cfg);

    MovingMinMaxNormalizer norm(cfg.normWindowSamples(), cfg.minContrast);
    DipDetector detector(cfg.detectorConfig());
    StallEvent ev;
    for (float x : sig.samples)
        detector.push(norm.push(x), ev);
    StallEvent flushed;
    ASSERT_TRUE(detector.finish(flushed));

    ASSERT_EQ(result.events.size(), 2u);
    const StallEvent &last = result.events.back();
    EXPECT_EQ(last.startSample, flushed.startSample);
    EXPECT_EQ(last.endSample, flushed.endSample);
    EXPECT_EQ(bits(last.depth), bits(flushed.depth));
    EXPECT_EQ(last.endSample, sig.samples.size() - 1);
}

TEST(EmProf, FinishDropsTrailingDipShorterThanMinimum)
{
    // Three low samples at the end: below the four-sample floor, so
    // neither the detector nor finish() may emit them.
    const EmProfConfig cfg = testConfig();
    ASSERT_GT(cfg.effectiveMinDurationSamples(), 3u);
    const auto sig = makeSignal(40e6, {{3000, 20}, {9997, 3}}, 10000);
    const auto result = EmProf::analyze(sig, cfg);

    MovingMinMaxNormalizer norm(cfg.normWindowSamples(), cfg.minContrast);
    DipDetector detector(cfg.detectorConfig());
    StallEvent ev;
    for (float x : sig.samples)
        detector.push(norm.push(x), ev);
    ASSERT_TRUE(detector.inDip());
    EXPECT_FALSE(detector.finish(ev));

    ASSERT_EQ(result.events.size(), 1u);
    EXPECT_EQ(result.events[0].startSample, 3000u);
}

TEST(EmProf, ResilientTrailingPartialBlockCountsTowardCoverage)
{
    // 10123 samples in 800-sample quality blocks: the last block holds
    // 523 samples and must still be counted, or coverage falls short
    // of the whole (clean) signal.
    EmProfConfig cfg = testConfig();
    cfg.signal.enabled = true;
    const std::size_t n = 10123;
    const uint64_t q = cfg.qualityBlockSamples();
    ASSERT_NE(n % q, 0u);
    const auto result =
        EmProf::analyze(makeSignal(40e6, {{3000, 20}}, n), cfg);
    EXPECT_EQ(result.report.quality.totalBlocks, (n + q - 1) / q);
    EXPECT_EQ(result.report.quality.unusableBlocks, 0u);
    EXPECT_EQ(result.report.quality.coverageFraction, 1.0);
}

TEST(EmProf, ReportTextContainsHeadlineNumbers)
{
    std::vector<std::pair<std::size_t, std::size_t>> dips = {{1000, 10}};
    const auto sig = makeSignal(40e6, dips, 3000);
    const auto result = EmProf::analyze(sig, testConfig());
    const auto text = result.report.toText("title-line");
    EXPECT_NE(text.find("title-line"), std::string::npos);
    EXPECT_NE(text.find("events: 1"), std::string::npos);
}

TEST(LatencyHistogram, BinsEvents)
{
    std::vector<StallEvent> events(3);
    events[0].stallCycles = 50;
    events[1].stallCycles = 500;
    events[2].stallCycles = 5000;
    const auto hist = latencyHistogram(events, 20.0, 20000.0, 10);
    EXPECT_EQ(hist.total(), 3u);
    EXPECT_EQ(hist.underflow() + hist.overflow(), 0u);
}

} // namespace
} // namespace emprof::profiler
