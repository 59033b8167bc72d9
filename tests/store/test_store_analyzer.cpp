/**
 * @file
 * EMCAP → parallel analyzer equivalence: feeding a lossless capture to
 * analyzeCaptureParallel must produce events bit-identical to loading the same
 * samples into memory and running the streaming analyzer — for any
 * stored chunk size and thread count, including stored chunks much
 * smaller than the analysis spans.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

namespace emprof::profiler {
namespace {

EmProfConfig
testConfig()
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 20e-6; // 800-sample envelope window
    return cfg;
}

dsp::TimeSeries
busySignalWithDips(std::size_t total, uint64_t seed)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    std::size_t pos = 600;
    while (pos + 70 < total) {
        const std::size_t len = 2 + rng.below(59);
        for (std::size_t i = pos; i < pos + len; ++i)
            s.samples[i] = 0.2f;
        pos += len + 20 + rng.below(2000);
    }
    return s;
}

void
expectIdentical(const ProfileResult &a, const ProfileResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < b.events.size(); ++i) {
        EXPECT_EQ(a.events[i].startSample, b.events[i].startSample);
        EXPECT_EQ(a.events[i].endSample, b.events[i].endSample);
        EXPECT_EQ(a.events[i].depth, b.events[i].depth);
        EXPECT_EQ(a.events[i].durationNs, b.events[i].durationNs);
        EXPECT_EQ(a.events[i].stallCycles, b.events[i].stallCycles);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    }
    EXPECT_EQ(a.report.totalEvents, b.report.totalEvents);
}

std::string
writeEmcap(const dsp::TimeSeries &sig, const char *name,
           std::size_t chunkSamples)
{
    store::WriterOptions opt;
    opt.sampleRateHz = sig.sampleRateHz;
    opt.chunkSamples = chunkSamples;
    const std::string path = std::string(::testing::TempDir()) + name;
    EXPECT_TRUE(store::writeCapture(path, sig, opt));
    return path;
}

TEST(StoreAnalyzer, EmcapMatchesStreamingAcrossChunkSizesAndThreads)
{
    const auto sig = busySignalWithDips(50000, 1);
    const auto streaming = EmProf::analyze(sig, testConfig());

    // Stored chunks both smaller and larger than the analysis spans;
    // span grouping must align to whatever is on disk.
    for (const std::size_t stored :
         {std::size_t{512}, std::size_t{3000}, std::size_t{20000}}) {
        const auto path = writeEmcap(sig, "eq.emcap", stored);
        store::CaptureReader reader;
        std::string error;
        ASSERT_TRUE(reader.open(path, &error)) << error;
        for (const std::size_t threads :
             {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            SCOPED_TRACE(::testing::Message() << "stored=" << stored
                                              << " threads=" << threads);
            ParallelAnalyzerConfig pcfg;
            pcfg.threads = threads;
            ProfileResult result;
            ASSERT_TRUE(analyzeCaptureParallel(reader, testConfig(),
                                               result, pcfg, &error))
                << error;
            expectIdentical(result, streaming);
        }
        std::remove(path.c_str());
    }
}

TEST(StoreAnalyzer, ExplicitChunkSizeAlignsToStoredBoundaries)
{
    const auto sig = busySignalWithDips(30000, 2);
    const auto streaming = EmProf::analyze(sig, testConfig());
    const auto path = writeEmcap(sig, "aligned.emcap", 700);
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    // Requested span sizes that do not divide the stored chunk size.
    for (const std::size_t span :
         {std::size_t{1000}, std::size_t{2048}, std::size_t{9999}}) {
        SCOPED_TRACE(::testing::Message() << "span=" << span);
        ParallelAnalyzerConfig pcfg;
        pcfg.threads = 4;
        pcfg.chunkSamples = span;
        ProfileResult result;
        ASSERT_TRUE(analyzeCaptureParallel(reader, testConfig(), result,
                                           pcfg, &error))
            << error;
        expectIdentical(result, streaming);
    }
    std::remove(path.c_str());
}

TEST(StoreAnalyzer, SingleThreadRunsAsOneSpan)
{
    const auto sig = busySignalWithDips(20000, 3);
    const auto streaming = EmProf::analyze(sig, testConfig());
    const auto path = writeEmcap(sig, "fallback.emcap", 4096);
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    ParallelAnalyzerConfig one;
    one.threads = 1;
    ProfileResult result;
    ASSERT_TRUE(
        analyzeCaptureParallel(reader, testConfig(), result, one, &error))
        << error;
    expectIdentical(result, streaming);
    std::remove(path.c_str());
}

TEST(StoreAnalyzer, EmptyInputMatchesStreaming)
{
    // Zero samples plan zero spans; both entry points must still
    // produce the streaming result, report text included.
    dsp::TimeSeries empty;
    empty.sampleRateHz = 40e6;
    const auto path = writeEmcap(empty, "empty.emcap", 4096);
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    ASSERT_EQ(reader.info().totalSamples, 0u);

    for (const bool resilient : {false, true}) {
        EmProfConfig config = testConfig();
        config.signal.enabled = resilient;
        const auto streaming = EmProf::analyze(empty, config);
        const std::string text = streaming.report.toText("report");
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(::testing::Message() << "resilient=" << resilient
                                              << " threads=" << threads);
            ParallelAnalyzerConfig pcfg;
            pcfg.threads = threads;
            const auto series = analyzeParallel(empty, config, pcfg);
            expectIdentical(series, streaming);
            EXPECT_EQ(series.report.toText("report"), text);

            ProfileResult capture;
            ASSERT_TRUE(analyzeCaptureParallel(reader, config, capture,
                                               pcfg, &error))
                << error;
            expectIdentical(capture, streaming);
            EXPECT_EQ(capture.report.toText("report"), text);
        }
    }
    std::remove(path.c_str());
}

TEST(StoreAnalyzer, ReadRangeGivesTheSameBitsIntoFreshAndReusedBuffers)
{
    // Above 2 MiB of samples, so a fresh buffer takes the huge-page
    // advised allocation; a buffer that already has the capacity is
    // overwritten in place.  Both must hold the stored bits exactly.
    const std::size_t total = 1200000;
    const auto sig = busySignalWithDips(total, 5);
    const auto path = writeEmcap(sig, "reuse.emcap", 65536);
    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;

    const auto bitsEqual = [](const std::vector<dsp::Sample> &got,
                              const dsp::Sample *want, std::size_t n) {
        return got.size() == n &&
               std::memcmp(got.data(), want, n * sizeof(dsp::Sample)) == 0;
    };
    std::vector<dsp::Sample> reused(total + 4096, -7.0f);
    const std::size_t ranges[][2] = {
        {0, total}, {1, total - 1}, {70000, 1000000}, {65536, 65536}};
    for (const auto &range : ranges) {
        const std::size_t first = range[0], count = range[1];
        SCOPED_TRACE(::testing::Message()
                     << "first=" << first << " count=" << count);
        std::vector<dsp::Sample> fresh;
        ASSERT_TRUE(reader.readRange(first, count, fresh, &error)) << error;
        EXPECT_TRUE(bitsEqual(fresh, sig.samples.data() + first, count));

        const std::size_t capacity = reused.capacity();
        ASSERT_TRUE(reader.readRange(first, count, reused, &error)) << error;
        EXPECT_EQ(reused.capacity(), capacity);
        EXPECT_TRUE(bitsEqual(reused, sig.samples.data() + first, count));
    }

    dsp::TimeSeries all;
    ASSERT_TRUE(reader.readAll(all, &error)) << error;
    EXPECT_TRUE(bitsEqual(all.samples, sig.samples.data(), total));
    std::remove(path.c_str());
}

TEST(StoreAnalyzer, CorruptChunkFailsAnalysisWithError)
{
    const auto sig = busySignalWithDips(20000, 4);
    const auto path = writeEmcap(sig, "corrupted.emcap", 1024);

    // Flip a payload byte in the middle of the file.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40000, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    std::fseek(f, 40000, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);

    store::CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    ParallelAnalyzerConfig pcfg;
    pcfg.threads = 4;
    ProfileResult result;
    EXPECT_FALSE(analyzeCaptureParallel(reader, testConfig(), result,
                                        pcfg, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace emprof::profiler
