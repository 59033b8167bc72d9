/**
 * @file
 * EmcapStreamDecoder against CaptureReader, the reference it must match.
 *
 *  - Split points: seeded random captures (both codecs, raw-fallback
 *    and one-sample chunks) fed byte by byte, at random cuts and as one
 *    slice decode to the sample bit patterns CaptureReader::readAll
 *    returns.
 *  - Corruption: whenever open()/verify() rejects a damaged copy, the
 *    stream decoder ends in a typed error too; whenever they accept it,
 *    the stream decodes the same samples.
 *  - The chunk bound: a CRC-valid chunk of kMaxChunkSamples + 1
 *    samples is refused by the stream decoder, open() and recovery
 *    before any sample buffer is sized; one of exactly kMaxChunkSamples
 *    decodes in all three.
 */

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capture_bytes.hpp"
#include "dsp/rng.hpp"
#include "serve/emcap_stream.hpp"
#include "store/capture_reader.hpp"
#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

using namespace emprof;

namespace {

constexpr int kSeeds = 40;

struct Decoded
{
    bool ok = false;
    std::string error;
    std::vector<dsp::Sample> samples;
};

/** A seeded capture: codec, compression, chunk size and length vary. */
std::vector<uint8_t>
randomCapture(uint64_t seed)
{
    dsp::Rng rng(seed);
    store::WriterOptions opt;
    opt.sampleRateHz = 40e6;
    opt.clockHz = rng.chance(0.5) ? 1e9 : 0.0;
    opt.deviceName = "seed" + std::to_string(seed);
    opt.codec = rng.chance(0.5) ? store::SampleCodec::F32
                                : store::SampleCodec::QuantI16;
    opt.quantBits = 2 + static_cast<unsigned>(rng.below(15));
    opt.compress = !rng.chance(0.2);
    constexpr std::size_t kChunks[] = {1, 2, 3, 127, 128, 129, 500, 4096};
    opt.chunkSamples = kChunks[rng.below(std::size(kChunks))];

    // One-sample chunks cost 44 bytes of framing each: keep those short.
    std::size_t n = 1 + rng.below(opt.chunkSamples == 1 ? 64 : 6000);
    if (rng.chance(0.3)) // end on a one-sample chunk
        n = n / opt.chunkSamples * opt.chunkSamples + 1;

    // A plateau with dips packs well; stretches of random bit patterns
    // (NaN, Inf and denormals included) force the raw fallback.
    const bool noisy = rng.chance(0.4);
    dsp::TimeSeries series;
    series.sampleRateHz = opt.sampleRateHz;
    series.samples.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        float x = 1.0f + 0.02f * static_cast<float>(rng.uniform() - 0.5);
        if ((i / 700) % 3 == 2)
            x *= 0.3f;
        if (noisy && (i / 300) % 2 == 1) {
            const auto bits = static_cast<uint32_t>(rng());
            std::memcpy(&x, &bits, sizeof(x));
        }
        series.samples[i] = x;
    }
    return test::captureBytes(series, opt,
                              "diff_" + std::to_string(seed) + ".emcap");
}

/** CaptureReader's verdict: open + verify + readAll. */
Decoded
readerDecode(const std::vector<uint8_t> &bytes, const std::string &name)
{
    const auto path = test::tempPath(name);
    test::writeFileBytes(path, bytes);
    Decoded d;
    store::CaptureReader reader;
    dsp::TimeSeries series;
    d.ok = reader.open(path, &d.error) && reader.verify().ok &&
           reader.readAll(series, &d.error);
    d.samples = std::move(series.samples);
    std::remove(path.c_str());
    return d;
}

/** Feed @p bytes in slices of the @p sizes lengths (cycled). */
Decoded
streamDecode(const std::vector<uint8_t> &bytes,
             const std::vector<std::size_t> &sizes)
{
    serve::EmcapStreamDecoder decoder;
    Decoded d;
    d.ok = true;
    std::size_t off = 0;
    for (std::size_t k = 0; d.ok && off < bytes.size(); ++k) {
        const std::size_t len =
            std::min(sizes[k % sizes.size()], bytes.size() - off);
        d.ok = decoder.feed(bytes.data() + off, len, d.samples, &d.error);
        off += len;
    }
    d.ok = d.ok && decoder.complete(&d.error);
    return d;
}

std::vector<std::size_t>
randomCuts(dsp::Rng &rng, std::size_t size)
{
    std::vector<std::size_t> cuts(1 + rng.below(16));
    for (auto &c : cuts)
        c = 1 + rng.below(size / 3 + 1);
    return cuts;
}

bool
sameBits(const std::vector<dsp::Sample> &a,
         const std::vector<dsp::Sample> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

/** The stream must agree with the reader's verdict on @p bytes. */
void
expectStreamAgrees(const std::vector<uint8_t> &bytes,
                   const Decoded &reference,
                   const std::vector<std::size_t> &cuts,
                   const std::string &what)
{
    const Decoded got = streamDecode(bytes, cuts);
    if (!reference.ok) {
        EXPECT_FALSE(got.ok) << what << ": reader rejects ("
                             << reference.error << "), stream accepts";
        EXPECT_TRUE(got.ok || !got.error.empty()) << what;
        return;
    }
    ASSERT_TRUE(got.ok) << what << ": " << got.error;
    EXPECT_TRUE(sameBits(got.samples, reference.samples)) << what;
}

TEST(EmcapStream, MatchesCaptureReaderAtEverySplit)
{
    std::size_t raw = 0, packed = 0, single = 0, quantised = 0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
        const auto bytes = randomCapture(seed);
        const std::string name = "split_" + std::to_string(seed) + ".emcap";
        const Decoded reference = readerDecode(bytes, name);
        ASSERT_TRUE(reference.ok) << reference.error;

        // Census of what the corpus exercises.
        const auto path = test::tempPath(name);
        test::writeFileBytes(path, bytes);
        store::CaptureReader reader;
        ASSERT_TRUE(reader.open(path));
        quantised += reader.info().codec == store::SampleCodec::QuantI16;
        for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
            store::ChunkHeader chunk;
            std::memcpy(&chunk, bytes.data() + reader.chunk(i).fileOffset,
                        sizeof(chunk));
            const auto encoding =
                static_cast<store::ChunkEncoding>(chunk.encoding);
            raw += encoding == store::ChunkEncoding::Raw;
            packed += encoding == store::ChunkEncoding::DeltaPacked;
            single += chunk.sampleCount == 1;
        }
        reader.close();
        std::remove(path.c_str());

        dsp::Rng rng(1000 + seed);
        const std::string what = "seed " + std::to_string(seed);
        expectStreamAgrees(bytes, reference, {1}, what + " byte by byte");
        expectStreamAgrees(bytes, reference, {bytes.size()},
                           what + " one slice");
        for (int round = 0; round < 4; ++round)
            expectStreamAgrees(bytes, reference,
                               randomCuts(rng, bytes.size()),
                               what + " random cuts");
    }
    EXPECT_GT(raw, 0u);
    EXPECT_GT(packed, 0u);
    EXPECT_GT(single, 0u);
    EXPECT_GT(quantised, 0u);
    EXPECT_LT(quantised, static_cast<std::size_t>(kSeeds));
}

TEST(EmcapStream, RejectsWhatTheReaderRejects)
{
    for (int seed = 1; seed <= kSeeds; ++seed) {
        const auto good = randomCapture(seed);
        dsp::Rng rng(2000 + seed);
        for (int round = 0; round < 12; ++round) {
            auto bad = good;
            switch (rng.below(3)) {
            case 0: // one flipped byte
                bad[rng.below(bad.size())] ^=
                    static_cast<uint8_t>(1 + rng.below(255));
                break;
            case 1: // a few overwritten bytes
                for (int e = 0; e < 3; ++e)
                    bad[rng.below(bad.size())] =
                        static_cast<uint8_t>(rng.below(256));
                break;
            default: // torn upload
                bad.resize(rng.below(bad.size()));
                break;
            }
            const std::string what = "seed " + std::to_string(seed) +
                                     " round " + std::to_string(round);
            const Decoded reference = readerDecode(bad, "reject.emcap");
            expectStreamAgrees(bad, reference, {bad.size() + 1}, what);
            expectStreamAgrees(bad, reference,
                               randomCuts(rng, bad.size() + 1), what);
        }
    }
}

TEST(EmcapStream, EveryFlippedByteIsATypedError)
{
    // The served twin of StoreFuzz.EverySingleFlippedByteIsDetected:
    // header, chunks and footer are all checked on the fly.
    for (const auto codec :
         {store::SampleCodec::F32, store::SampleCodec::QuantI16}) {
        dsp::TimeSeries series;
        series.sampleRateHz = 40e6;
        dsp::Rng rng(11);
        for (int i = 0; i < 300; ++i)
            series.samples.push_back(
                1.0f + 0.02f * static_cast<float>(rng.uniform() - 0.5));
        store::WriterOptions opt;
        opt.sampleRateHz = 40e6;
        opt.codec = codec;
        opt.chunkSamples = 100;
        const auto good = test::captureBytes(series, opt, "flip.emcap");
        for (std::size_t i = 0; i < good.size(); ++i) {
            auto bad = good;
            bad[i] ^= 0x01;
            const Decoded got = streamDecode(bad, {bad.size()});
            EXPECT_FALSE(got.ok) << "flip at byte " << i << " accepted";
            EXPECT_FALSE(got.error.empty()) << "flip at byte " << i;
        }
    }
}

/**
 * One DeltaPacked chunk of @p count copies of 1.0f: the first value,
 * then one zero bit-width byte per 128-sample miniblock.  About 8 KB
 * of payload for 4 MiB of samples — CRC-valid, footer and all.
 */
std::vector<uint8_t>
constantChunkCapture(uint32_t count)
{
    std::vector<uint8_t> payload(8 + (count - 1 + 127) / 128, 0);
    const float one = 1.0f;
    std::memcpy(payload.data(), &one, sizeof(one));

    store::ChunkHeader chunk{};
    chunk.encoding = static_cast<uint32_t>(store::ChunkEncoding::DeltaPacked);
    chunk.sampleCount = count;
    chunk.payloadBytes = static_cast<uint32_t>(payload.size());
    chunk.scale = 1.0f;
    chunk.crc = store::chunkCrc(chunk, payload.data());

    const store::ChunkIndexEntry entry{
        sizeof(store::FileHeader), 0, count,
        static_cast<uint32_t>(sizeof(chunk) + payload.size())};
    store::FooterTail tail{};
    tail.chunkCount = 1;
    tail.totalSamples = count;
    std::memcpy(tail.magic, store::kFooterMagic, sizeof(tail.magic));
    tail.footerCrc =
        store::footerCrc(store::crc32c(0, &entry, sizeof(entry)), tail);

    std::vector<uint8_t> bytes;
    test::appendBytes(bytes, test::validHeader(count));
    test::appendBytes(bytes, chunk);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    test::appendBytes(bytes, entry);
    test::appendBytes(bytes, tail);
    return bytes;
}

TEST(EmcapStream, ChunkAboveTheBoundIsATypedErrorEverywhere)
{
    const auto count = static_cast<uint32_t>(store::kMaxChunkSamples + 1);
    const auto bytes = constantChunkCapture(count);
    ASSERT_EQ(bytes.size(), 72u + 20 + 8200 + 24 + 24);

    // The bound is the only thing refusing it: the codec itself would
    // expand these 8200 bytes to 4 MiB of samples.
    std::vector<dsp::Sample> expanded(count);
    ASSERT_TRUE(store::decodeChunk(bytes.data() + 92, 8200,
                                   store::ChunkEncoding::DeltaPacked,
                                   store::SampleCodec::F32, 1.0f, count,
                                   expanded.data()));

    serve::EmcapStreamDecoder decoder;
    std::vector<dsp::Sample> out;
    std::string error;
    EXPECT_FALSE(decoder.feed(bytes.data(), bytes.size(), out, &error));
    EXPECT_NE(error.find("kMaxChunkSamples"), std::string::npos) << error;
    EXPECT_EQ(out.capacity(), 0u) << "sample buffer sized from the header";
    EXPECT_EQ(decoder.bytesConsumed(),
              sizeof(store::FileHeader) + sizeof(store::ChunkHeader));

    const auto path = test::tempPath("over_bound.emcap");
    test::writeFileBytes(path, bytes);
    store::CaptureReader reader;
    EXPECT_FALSE(reader.open(path, &error));
    EXPECT_NE(error.find("footer index"), std::string::npos) << error;

    store::RecoveryReport report;
    ASSERT_TRUE(reader.openRecovered(path, &report, &error)) << error;
    EXPECT_EQ(report.salvagedChunks, 0u);
    EXPECT_EQ(reader.info().totalSamples, 0u);
    EXPECT_NE(report.stopReason.find("kMaxChunkSamples"), std::string::npos)
        << report.stopReason;
    std::remove(path.c_str());
}

TEST(EmcapStream, ChunkAtTheBoundDecodesEverywhere)
{
    const auto count = static_cast<uint32_t>(store::kMaxChunkSamples);
    const auto bytes = constantChunkCapture(count);
    const std::vector<dsp::Sample> ones(count, 1.0f);

    const Decoded streamed = streamDecode(bytes, {bytes.size()});
    ASSERT_TRUE(streamed.ok) << streamed.error;
    EXPECT_TRUE(sameBits(streamed.samples, ones));

    const Decoded read = readerDecode(bytes, "at_bound.emcap");
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_TRUE(sameBits(read.samples, ones));

    const auto path = test::tempPath("at_bound_recover.emcap");
    test::writeFileBytes(path, bytes);
    store::CaptureReader reader;
    store::RecoveryReport report;
    ASSERT_TRUE(reader.openRecovered(path, &report));
    EXPECT_EQ(report.salvagedChunks, 1u);
    EXPECT_EQ(report.salvagedSamples, count);
    std::remove(path.c_str());
}

} // namespace
