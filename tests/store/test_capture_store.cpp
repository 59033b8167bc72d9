/**
 * @file
 * CaptureWriter / CaptureReader container tests: round-trips, footer
 * seeking at chunk boundaries, metadata, streaming appends, and the
 * per-chunk damage-containment story (one corrupt chunk must not take
 * the rest of the capture with it).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"

namespace emprof::store {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

dsp::TimeSeries
plateauSeries(std::size_t n, uint64_t seed)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(n, 1.0f);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    return s;
}

WriterOptions
baseOptions(std::size_t chunkSamples = 1000)
{
    WriterOptions opt;
    opt.sampleRateHz = 40e6;
    opt.clockHz = 1.008e9;
    opt.deviceName = "TestDevice";
    opt.chunkSamples = chunkSamples;
    return opt;
}

/** Flip one byte in a file. */
void
flipByte(const std::string &path, long offset, uint8_t mask = 0xFF)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ mask, f);
    std::fclose(f);
}

TEST(CaptureStore, LosslessRoundTripIsBitExact)
{
    // 3.5 chunks: exercises the partial final chunk.
    const auto series = plateauSeries(3500, 1);
    const auto path = tempPath("roundtrip.emcap");
    WriterStats stats;
    ASSERT_TRUE(writeCapture(path, series, baseOptions(), &stats));
    EXPECT_EQ(stats.samples, 3500u);
    EXPECT_EQ(stats.chunks, 4u);

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().totalSamples, 3500u);
    EXPECT_EQ(reader.info().codec, SampleCodec::F32);
    EXPECT_DOUBLE_EQ(reader.info().sampleRateHz, 40e6);
    EXPECT_DOUBLE_EQ(reader.info().clockHz, 1.008e9);
    EXPECT_EQ(reader.info().deviceName, "TestDevice");
    EXPECT_EQ(reader.chunkCount(), 4u);

    dsp::TimeSeries loaded;
    ASSERT_TRUE(reader.readAll(loaded, &error)) << error;
    EXPECT_DOUBLE_EQ(loaded.sampleRateHz, 40e6);
    ASSERT_EQ(loaded.samples.size(), series.samples.size());
    EXPECT_EQ(std::memcmp(loaded.samples.data(), series.samples.data(),
                          series.samples.size() * sizeof(float)),
              0);
    std::remove(path.c_str());
}

TEST(CaptureStore, QuantizedRoundTripWithinErrorBound)
{
    const auto series = plateauSeries(5000, 2);
    const auto path = tempPath("quant.emcap");
    auto opt = baseOptions();
    opt.codec = SampleCodec::QuantI16;
    opt.quantBits = 16;
    WriterStats stats;
    ASSERT_TRUE(writeCapture(path, series, opt, &stats));
    // The acceptance bar: i16 beats raw f32 by at least 2x.
    EXPECT_GE(stats.compressionRatio(), 2.0);

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().codec, SampleCodec::QuantI16);
    EXPECT_EQ(reader.info().quantBits, 16u);

    dsp::TimeSeries loaded;
    ASSERT_TRUE(reader.readAll(loaded, &error)) << error;
    ASSERT_EQ(loaded.samples.size(), series.samples.size());
    // maxAbs is just over 1.0, so scale/2 stays under 2e-5.
    for (std::size_t i = 0; i < series.samples.size(); ++i)
        ASSERT_NEAR(loaded.samples[i], series.samples[i], 2e-5)
            << "i=" << i;
    std::remove(path.c_str());
}

TEST(CaptureStore, EmptyCaptureRoundTrips)
{
    dsp::TimeSeries empty;
    empty.sampleRateHz = 40e6;
    const auto path = tempPath("empty.emcap");
    ASSERT_TRUE(writeCapture(path, empty, baseOptions()));

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().totalSamples, 0u);
    EXPECT_EQ(reader.chunkCount(), 0u);
    dsp::TimeSeries loaded;
    EXPECT_TRUE(reader.readAll(loaded, &error)) << error;
    EXPECT_TRUE(loaded.samples.empty());
    EXPECT_TRUE(reader.verify().ok);
    std::remove(path.c_str());
}

TEST(CaptureStore, StreamingAppendEqualsOneShot)
{
    const auto series = plateauSeries(4321, 3);
    const auto one = tempPath("oneshot.emcap");
    const auto dripped = tempPath("dripped.emcap");
    ASSERT_TRUE(writeCapture(one, series, baseOptions()));

    // Same samples pushed in awkward piece sizes must produce an
    // identical chunk layout (chunking is by count, not by append).
    CaptureWriter writer;
    ASSERT_TRUE(writer.open(dripped, baseOptions()));
    std::size_t pos = 0;
    const std::size_t pieces[] = {1, 999, 1000, 1, 0, 1500, 820};
    for (const std::size_t piece : pieces) {
        ASSERT_TRUE(
            writer.append(series.samples.data() + pos, piece));
        pos += piece;
    }
    ASSERT_EQ(pos, series.samples.size());
    ASSERT_TRUE(writer.finalize());

    // Byte-identical files, not just equivalent ones.
    std::FILE *fa = std::fopen(one.c_str(), "rb");
    std::FILE *fb = std::fopen(dripped.c_str(), "rb");
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    for (;;) {
        const int a = std::fgetc(fa);
        const int b = std::fgetc(fb);
        ASSERT_EQ(a, b);
        if (a == EOF)
            break;
    }
    std::fclose(fa);
    std::fclose(fb);
    std::remove(one.c_str());
    std::remove(dripped.c_str());
}

TEST(CaptureStore, ReadRangeSeeksCorrectlyAtChunkBoundaries)
{
    const std::size_t chunk = 500;
    const auto series = plateauSeries(4 * chunk + 123, 4);
    const auto path = tempPath("seek.emcap");
    ASSERT_TRUE(writeCapture(path, series, baseOptions(chunk)));

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    ASSERT_EQ(reader.chunkCount(), 5u);

    // chunkContaining at every boundary flavour.
    EXPECT_EQ(reader.chunkContaining(0), 0u);
    EXPECT_EQ(reader.chunkContaining(chunk - 1), 0u);
    EXPECT_EQ(reader.chunkContaining(chunk), 1u);
    EXPECT_EQ(reader.chunkContaining(4 * chunk), 4u);
    EXPECT_EQ(reader.chunkContaining(4 * chunk + 122), 4u);

    struct Case
    {
        uint64_t first, count;
    };
    const Case cases[] = {
        {0, 1},                    // first sample
        {0, chunk},                // exactly chunk 0
        {chunk, chunk},            // exactly chunk 1
        {chunk - 1, 2},            // straddles one boundary
        {chunk - 1, 2 * chunk},    // straddles two boundaries
        {3 * chunk + 7, chunk},    // partial tail chunk involved
        {4 * chunk + 122, 1},      // very last sample
        {0, 4 * chunk + 123},      // everything
    };
    for (const auto &c : cases) {
        std::vector<dsp::Sample> got;
        ASSERT_TRUE(reader.readRange(c.first, c.count, got, &error))
            << "first=" << c.first << " count=" << c.count << ": "
            << error;
        ASSERT_EQ(got.size(), c.count);
        EXPECT_EQ(std::memcmp(got.data(),
                              series.samples.data() + c.first,
                              c.count * sizeof(float)),
                  0)
            << "first=" << c.first << " count=" << c.count;
    }

    // Out-of-range and overflowing requests must fail cleanly.
    std::vector<dsp::Sample> got;
    EXPECT_FALSE(reader.readRange(4 * chunk + 123, 1, got));
    EXPECT_FALSE(reader.readRange(0, 4 * chunk + 124, got));
    EXPECT_FALSE(reader.readRange(~uint64_t{0}, 2, got));
    // Empty range at a valid position is fine.
    EXPECT_TRUE(reader.readRange(chunk, 0, got, &error)) << error;
    EXPECT_TRUE(got.empty());
    std::remove(path.c_str());
}

TEST(CaptureStore, CorruptChunkIsContainedToThatChunk)
{
    const std::size_t chunk = 400;
    const auto series = plateauSeries(5 * chunk, 5);
    const auto path = tempPath("corrupt.emcap");
    ASSERT_TRUE(writeCapture(path, series, baseOptions(chunk)));

    CaptureReader clean;
    std::string error;
    ASSERT_TRUE(clean.open(path, &error)) << error;
    ASSERT_EQ(clean.chunkCount(), 5u);
    // Damage the middle of chunk 2's payload.
    const long target = static_cast<long>(clean.chunk(2).fileOffset +
                                          sizeof(ChunkHeader) +
                                          clean.chunk(2).storedBytes / 2);
    clean.close();
    flipByte(path, target);

    CaptureReader reader;
    ASSERT_TRUE(reader.open(path, &error)) << error; // header+footer OK

    // verify() names exactly the damaged chunk.
    const auto result = reader.verify();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.chunksChecked, 5u);
    ASSERT_EQ(result.badChunks.size(), 1u);
    EXPECT_EQ(result.badChunks[0], 2u);

    // The damaged chunk refuses to decode; every other chunk still
    // round-trips bit-exactly — damage is contained.
    std::vector<dsp::Sample> got;
    EXPECT_FALSE(reader.decodeChunk(2, got));
    for (const std::size_t i : {0u, 1u, 3u, 4u}) {
        ASSERT_TRUE(reader.decodeChunk(i, got, &error)) << error;
        ASSERT_EQ(got.size(), chunk);
        EXPECT_EQ(std::memcmp(got.data(),
                              series.samples.data() + i * chunk,
                              chunk * sizeof(float)),
                  0)
            << "chunk " << i;
    }
    // readRange through the bad chunk fails; around it, succeeds.
    EXPECT_FALSE(reader.readRange(2 * chunk + 10, 10, got));
    EXPECT_TRUE(reader.readRange(chunk, chunk, got, &error)) << error;
    EXPECT_TRUE(reader.readRange(3 * chunk, 2 * chunk, got, &error))
        << error;
    std::remove(path.c_str());
}

TEST(CaptureStore, WriterRejectsUnusableOptions)
{
    const auto path = tempPath("badopt.emcap");
    CaptureWriter writer;
    auto opt = baseOptions();
    opt.chunkSamples = 0;
    EXPECT_FALSE(writer.open(path, opt));

    opt = baseOptions();
    opt.codec = SampleCodec::QuantI16;
    opt.quantBits = 1;
    EXPECT_FALSE(writer.open(path, opt));
    opt.quantBits = 17;
    EXPECT_FALSE(writer.open(path, opt));
    opt.quantBits = 16;

    // Above the format's chunk bound (2^32 would narrow to a chunk
    // header declaring zero samples).
    for (const std::size_t chunk :
         {kMaxChunkSamples + 1, std::size_t{1} << 32}) {
        opt.chunkSamples = chunk;
        EXPECT_FALSE(writer.open(path, opt));
        EXPECT_NE(writer.lastError().describe().find(
                      "unusable writer options"),
                  std::string::npos);
    }
    opt.chunkSamples = kMaxChunkSamples;
    EXPECT_TRUE(writer.open(path, opt));
    EXPECT_TRUE(writer.finalize());
    std::remove(path.c_str());
}

TEST(CaptureStore, DeviceNameIsTruncatedNotOverflowed)
{
    const auto path = tempPath("longname.emcap");
    auto opt = baseOptions();
    opt.deviceName = "a-device-name-much-longer-than-the-header-field";
    ASSERT_TRUE(writeCapture(path, plateauSeries(10, 6), opt));

    CaptureReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    EXPECT_EQ(reader.info().deviceName,
              opt.deviceName.substr(0, sizeof(FileHeader::deviceName) - 1));
    std::remove(path.c_str());
}

TEST(CaptureStore, IsEmcapProbe)
{
    const auto path = tempPath("probe.emcap");
    ASSERT_TRUE(writeCapture(path, plateauSeries(10, 7), baseOptions()));
    EXPECT_TRUE(CaptureReader::isEmcap(path));

    const auto other = tempPath("probe.bin");
    std::FILE *f = std::fopen(other.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a capture at all", f);
    std::fclose(f);
    EXPECT_FALSE(CaptureReader::isEmcap(other));
    EXPECT_FALSE(CaptureReader::isEmcap(tempPath("missing.emcap")));
    std::remove(path.c_str());
    std::remove(other.c_str());
}

} // namespace
} // namespace emprof::store
