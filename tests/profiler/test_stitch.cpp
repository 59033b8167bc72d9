/**
 * @file
 * ChunkStitcher's two feeds: feed(ChunkResult&&) takes each chunk's
 * event vector by move and records how many leading events the carry
 * rule drops; feed(const ChunkResult&) copies the surviving range.  Both
 * (and any mix of the two) must give the same ProfileResult as the
 * streaming path, bit for bit, on chunkings where dips straddle seams,
 * span several chunks, and run off the end of the capture.
 */

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/profiler.hpp"
#include "profiler/stitch.hpp"

namespace emprof::profiler {
namespace {

uint64_t
bits(double x)
{
    uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

EmProfConfig
testConfig(bool resilient)
{
    EmProfConfig cfg;
    cfg.clockHz = 1e9;
    cfg.sampleRateHz = 40e6;
    cfg.normWindowSeconds = 20e-6; // 800-sample envelope window
    cfg.signal.enabled = resilient;
    return cfg;
}

/** Noisy busy level with noisy dips at the (start, length) pairs. */
dsp::TimeSeries
dipSignal(std::size_t total, uint64_t seed,
          const std::vector<std::pair<std::size_t, std::size_t>> &dips)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    for (const auto &[start, len] : dips)
        for (std::size_t i = start; i < start + len && i < total; ++i)
            s.samples[i] =
                0.2f + static_cast<float>(0.02 * (rng.uniform() - 0.5));
    return s;
}

/**
 * A dip straddles every @p chunk seam, one spans several chunks, one
 * sits inside a chunk, and the capture ends mid-dip.
 */
dsp::TimeSeries
seamSignal(std::size_t total, std::size_t chunk, uint64_t seed)
{
    dsp::Rng rng(seed);
    std::vector<std::pair<std::size_t, std::size_t>> dips;
    for (std::size_t seam = 2 * chunk; seam < total; seam += chunk)
        dips.emplace_back(seam - 3 - rng.below(8), 12 + rng.below(20));
    dips.emplace_back(total / 2, 3 * chunk); // spans whole chunks
    dips.emplace_back(chunk + chunk / 2, 9); // interior
    dips.emplace_back(total - 30, 30);       // ends mid-dip
    return dipSignal(total, seed, dips);
}

std::vector<ChunkResult>
chunkResults(const dsp::TimeSeries &sig, const EmProfConfig &cfg,
             std::size_t chunk)
{
    std::vector<ChunkResult> out;
    const std::size_t n = sig.samples.size();
    for (std::size_t begin = 0; begin < n; begin += chunk) {
        const std::size_t end = std::min(begin + chunk, n);
        out.push_back(analyzeChunkAuto(sig.samples.data(), 0, begin, end,
                                       end == n, cfg));
    }
    return out;
}

/** Leading chunk events the carry rule will drop (inside a prefix
 *  that extends a dip the previous chunk left open). */
std::size_t
droppedLeadingEvents(const std::vector<ChunkResult> &chunks)
{
    std::size_t dropped = 0;
    for (std::size_t c = 1; c < chunks.size(); ++c) {
        const auto &chunk = chunks[c];
        if (!chunks[c - 1].open.inDip)
            continue;
        for (const auto &ev : chunk.events)
            if (ev.startSample < chunk.begin + chunk.prefixNorms.size())
                ++dropped;
    }
    return dropped;
}

void
expectSameResult(const ProfileResult &a, const ProfileResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const auto &x = a.events[i];
        const auto &y = b.events[i];
        SCOPED_TRACE("event " + std::to_string(i));
        EXPECT_EQ(x.startSample, y.startSample);
        EXPECT_EQ(x.endSample, y.endSample);
        EXPECT_EQ(bits(x.depth), bits(y.depth));
        EXPECT_EQ(bits(x.durationNs), bits(y.durationNs));
        EXPECT_EQ(bits(x.stallCycles), bits(y.stallCycles));
        EXPECT_EQ(bits(x.confidence), bits(y.confidence));
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.level, y.level);
        EXPECT_EQ(bits(x.levelConfidence), bits(y.levelConfidence));
    }
    const ProfileReport &r = a.report;
    const ProfileReport &q = b.report;
    EXPECT_EQ(r.totalEvents, q.totalEvents);
    EXPECT_EQ(r.missEvents, q.missEvents);
    EXPECT_EQ(r.refreshEvents, q.refreshEvents);
    EXPECT_EQ(bits(r.totalStallCycles), bits(q.totalStallCycles));
    EXPECT_EQ(bits(r.avgStallCycles), bits(q.avgStallCycles));
    EXPECT_EQ(bits(r.medianStallCycles), bits(q.medianStallCycles));
    EXPECT_EQ(bits(r.p95StallCycles), bits(q.p95StallCycles));
    EXPECT_EQ(bits(r.p99StallCycles), bits(q.p99StallCycles));
    EXPECT_EQ(bits(r.maxStallCycles), bits(q.maxStallCycles));
    EXPECT_EQ(bits(r.meanLevelConfidence), bits(q.meanLevelConfidence));
    for (std::size_t l = 0; l < kServiceLevelCount; ++l) {
        EXPECT_EQ(r.levelEvents[l], q.levelEvents[l]);
        EXPECT_EQ(bits(r.levelStallCycles[l]), bits(q.levelStallCycles[l]));
    }
    EXPECT_EQ(r.quality.totalBlocks, q.quality.totalBlocks);
    EXPECT_EQ(r.quality.eventsDropped, q.quality.eventsDropped);
    EXPECT_EQ(bits(r.quality.coverageFraction),
              bits(q.quality.coverageFraction));
    EXPECT_EQ(bits(r.quality.meanConfidence),
              bits(q.quality.meanConfidence));
}

enum class Feed
{
    Copy,
    Move,
    Mixed, ///< move even chunks, copy odd ones
};

ProfileResult
stitch(std::vector<ChunkResult> chunks, const EmProfConfig &cfg,
       Feed mode, uint64_t total, uint64_t &carried)
{
    ChunkStitcher stitcher(cfg);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        if (mode == Feed::Move || (mode == Feed::Mixed && c % 2 == 0))
            stitcher.feed(std::move(chunks[c]));
        else
            stitcher.feed(chunks[c]);
    }
    carried = stitcher.carriedDips();
    return stitcher.finalize(total);
}

TEST(ChunkStitcher, MoveAndCopyFeedsAgreeAcrossSeams)
{
    std::size_t dropped = 0;
    for (const bool resilient : {false, true}) {
        const EmProfConfig cfg = testConfig(resilient);
        for (const std::size_t chunk : {97u, 256u, 1000u}) {
            const auto sig = seamSignal(30 * chunk + chunk / 3, chunk, chunk);
            const uint64_t n = sig.samples.size();
            const auto chunks = chunkResults(sig, cfg, chunk);
            if (!resilient)
                dropped += droppedLeadingEvents(chunks);
            SCOPED_TRACE(std::string(resilient ? "resilient" : "classic") +
                         " chunk=" + std::to_string(chunk));

            uint64_t carried_copy = 0, carried_move = 0, carried_mixed = 0;
            const auto copied =
                stitch(chunks, cfg, Feed::Copy, n, carried_copy);
            const auto moved = stitch(chunks, cfg, Feed::Move, n, carried_move);
            const auto mixed =
                stitch(chunks, cfg, Feed::Mixed, n, carried_mixed);
            EXPECT_GT(carried_copy, 0u);
            EXPECT_EQ(carried_move, carried_copy);
            EXPECT_EQ(carried_mixed, carried_copy);
            expectSameResult(moved, copied);
            expectSameResult(mixed, copied);
            expectSameResult(moved, EmProf::analyze(sig, cfg));
        }
    }
    // The chunkings really exercise the carry rule's prefix drop.
    EXPECT_GT(dropped, 0u);
}

TEST(ChunkStitcher, EmptyAndSingleChunkInputs)
{
    const EmProfConfig cfg = testConfig(false);
    // No chunks at all: no events, an empty report.
    {
        ChunkStitcher stitcher(cfg);
        const auto result = stitcher.finalize(0);
        EXPECT_TRUE(result.events.empty());
        EXPECT_EQ(result.report.totalEvents, 0u);
    }
    // One chunk, which ends mid-dip: the moved piece plus the flushed
    // dip splice into one list.
    const auto sig = dipSignal(5000, 3, {{1000, 10}, {2000, 15}, {4970, 30}});
    const auto chunks = chunkResults(sig, cfg, sig.samples.size());
    ASSERT_EQ(chunks.size(), 1u);
    ASSERT_TRUE(chunks[0].open.inDip);
    uint64_t carried = 0;
    const auto moved =
        stitch(chunks, cfg, Feed::Move, sig.samples.size(), carried);
    expectSameResult(moved, EmProf::analyze(sig, cfg));
}

} // namespace
} // namespace emprof::profiler
