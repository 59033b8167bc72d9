/**
 * @file
 * Differential tests for the chunk decoder's bit reader.
 *
 * The production decoder refills its bit accumulator eight bytes at a
 * time.  This file keeps the byte-at-a-time reader it replaced as a
 * reference and decodes the same payloads with both.  Each pair of
 * results must agree on accept/reject and on every output bit.  Both
 * output buffers start out filled with a sentinel and are compared whole,
 * so a rejected payload must also fail at the same sample.
 *
 * The payloads cover both codecs, every legal bit width (0..40) and a
 * few illegal ones, every truncation length, 1..8 trailing garbage
 * bytes, and seeded single-byte flips.  Each payload sits in a buffer of
 * exactly its own length, so under ASan an over-read by the word refill
 * is an error rather than a silent pass.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/rng.hpp"
#include "store/chunk_codec.hpp"

using namespace emprof;
using namespace emprof::store;

namespace {

constexpr std::size_t kMiniblock = 128;
constexpr unsigned kMaxWidth = 40;

/** The byte-at-a-time reader: the reference semantics. */
struct ReferenceBitReader
{
    const uint8_t *p;
    const uint8_t *end;
    uint64_t acc = 0;
    unsigned bits = 0;

    bool
    get(unsigned width, uint64_t &v)
    {
        while (bits < width) {
            if (p == end)
                return false;
            acc |= static_cast<uint64_t>(*p++) << bits;
            bits += 8;
        }
        v = width == 0 ? 0 : acc & (~uint64_t{0} >> (64 - width));
        acc >>= width;
        bits -= width;
        return true;
    }

    void
    byteAlign()
    {
        acc = 0;
        bits = 0;
    }
};

bool
referenceInRange(int64_t v, SampleCodec codec)
{
    if (codec == SampleCodec::F32)
        return v >= 0 && v <= 0xFFFFFFFFll;
    return v >= -32768 && v <= 32767;
}

dsp::Sample
referenceToSample(int64_t v, SampleCodec codec, float scale)
{
    if (codec == SampleCodec::F32) {
        const auto u = static_cast<uint32_t>(v);
        float x;
        std::memcpy(&x, &u, sizeof(x));
        return x;
    }
    return static_cast<float>(v) * scale;
}

/** The delta-packed decode loop around ReferenceBitReader. */
bool
referenceDecodePacked(const uint8_t *payload, std::size_t bytes,
                      SampleCodec codec, float scale, std::size_t count,
                      dsp::Sample *out)
{
    if (count == 0)
        return bytes == 0;
    if (bytes < 8)
        return false;
    uint64_t first;
    std::memcpy(&first, payload, 8);
    auto prev = static_cast<int64_t>(first);
    if (!referenceInRange(prev, codec))
        return false;
    out[0] = referenceToSample(prev, codec, scale);

    ReferenceBitReader reader{payload + 8, payload + bytes};
    for (std::size_t g = 1; g < count; g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, count - g);
        if (reader.p == reader.end)
            return false;
        const unsigned width = *reader.p++;
        if (width > kMaxWidth)
            return false;
        for (std::size_t i = g; i < g + n; ++i) {
            uint64_t z;
            if (!reader.get(width, z))
                return false;
            prev += static_cast<int64_t>(z >> 1) ^
                    -static_cast<int64_t>(z & 1);
            if (!referenceInRange(prev, codec))
                return false;
            out[i] = referenceToSample(prev, codec, scale);
        }
        reader.byteAlign();
    }
    return reader.p == reader.end;
}

constexpr float kScale = 0.125f;

/**
 * Decode @p payload with both decoders and require identical verdicts
 * and identical output buffers.  Returns the verdict.
 */
bool
expectSameDecode(const std::vector<uint8_t> &payload, SampleCodec codec,
                 std::size_t count, const std::string &what)
{
    // Exactly-sized copy: nothing readable past the last byte.
    const std::unique_ptr<uint8_t[]> exact(new uint8_t[payload.size()]);
    std::copy(payload.begin(), payload.end(), exact.get());
    const uint8_t *data = payload.empty() ? nullptr : exact.get();

    constexpr uint32_t kSentinel = 0x7fc0dead; // marks unwritten samples
    dsp::Sample sentinel;
    std::memcpy(&sentinel, &kSentinel, sizeof(sentinel));
    std::vector<dsp::Sample> want(count, sentinel);
    std::vector<dsp::Sample> got(count, sentinel);
    const bool ref_ok = referenceDecodePacked(data, payload.size(), codec,
                                              kScale, count, want.data());
    const bool ok =
        decodeChunk(data, payload.size(), ChunkEncoding::DeltaPacked, codec,
                    kScale, count, got.data());
    EXPECT_EQ(ok, ref_ok) << what;
    for (std::size_t i = 0; i < count; ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(dsp::Sample)) != 0) {
            ADD_FAILURE() << what << ": first differing sample " << i;
            break;
        }
    return ok;
}

/**
 * A delta-packed payload of @p count samples in which every miniblock
 * declares @p width.  With @p small the packed values stay below 4 so
 * the running value never leaves the codec's range (the payload is
 * valid at every width); otherwise every bit is random.
 */
std::vector<uint8_t>
craftPayload(SampleCodec codec, unsigned width, std::size_t count,
             bool small, dsp::Rng &rng)
{
    std::vector<uint8_t> out(8);
    const uint64_t first = codec == SampleCodec::F32 ? 0x3f800000u : 100u;
    std::memcpy(out.data(), &first, 8);
    for (std::size_t g = 1; g < count; g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, count - g);
        out.push_back(static_cast<uint8_t>(width));
        // LSB-first packing; width <= 40 and bits < 8 never overflow.
        uint64_t acc = 0;
        unsigned bits = 0;
        for (std::size_t i = 0; i < n; ++i) {
            uint64_t v = rng() & ((uint64_t{1} << width) - 1);
            if (small)
                v &= 3;
            acc |= v << bits;
            bits += width;
            for (; bits >= 8; bits -= 8, acc >>= 8)
                out.push_back(static_cast<uint8_t>(acc));
        }
        if (bits > 0)
            out.push_back(static_cast<uint8_t>(acc));
    }
    return out;
}

constexpr SampleCodec kCodecs[] = {SampleCodec::F32, SampleCodec::QuantI16};

const char *
codecName(SampleCodec codec)
{
    return codec == SampleCodec::F32 ? "f32" : "i16";
}

// Two full miniblocks and a partial one: every width lands the miniblock
// ends at a different bit offset.
constexpr std::size_t kCount = 1 + 2 * kMiniblock + 45;

TEST(CodecDifferential, EveryWidthEveryTruncation)
{
    dsp::Rng rng(0xd1ff);
    for (const SampleCodec codec : kCodecs) {
        for (unsigned width = 0; width <= kMaxWidth; ++width) {
            for (const bool small : {true, false}) {
                const auto payload =
                    craftPayload(codec, width, kCount, small, rng);
                const std::string what =
                    std::string(codecName(codec)) + " width " +
                    std::to_string(width) + (small ? " small" : " full");
                if (small)
                    EXPECT_TRUE(
                        expectSameDecode(payload, codec, kCount, what));
                else
                    expectSameDecode(payload, codec, kCount, what);
                for (std::size_t len = 0; len < payload.size(); ++len) {
                    const std::vector<uint8_t> cut(
                        payload.begin(),
                        payload.begin() + static_cast<std::ptrdiff_t>(len));
                    EXPECT_FALSE(expectSameDecode(
                        cut, codec, kCount,
                        what + " cut at " + std::to_string(len)));
                }
            }
        }
    }
}

TEST(CodecDifferential, IllegalWidthsRejectedAlike)
{
    dsp::Rng rng(0x41);
    for (const SampleCodec codec : kCodecs)
        for (const unsigned width : {41u, 64u, 255u}) {
            auto payload = craftPayload(codec, 1, kCount, true, rng);
            payload[8 + 1 + (kMiniblock + 7) / 8] =
                static_cast<uint8_t>(width); // second miniblock
            EXPECT_FALSE(expectSameDecode(
                payload, codec, kCount,
                std::string(codecName(codec)) + " width " +
                    std::to_string(width)));
        }
}

/** Real encoder output for a noisy plateau with dips. */
std::vector<uint8_t>
encodedPayload(SampleCodec codec, std::size_t count, uint64_t seed)
{
    dsp::Rng rng(seed);
    std::vector<dsp::Sample> x(count);
    for (std::size_t i = 0; i < count; ++i)
        x[i] = static_cast<float>(i % 300 < 10 ? 0.2 : 1.0) +
               static_cast<float>(0.02 * (rng.uniform() - 0.5));
    EncoderOptions options;
    options.codec = codec;
    const EncodedChunk chunk = encodeChunk(x.data(), count, options);
    EXPECT_EQ(chunk.encoding, ChunkEncoding::DeltaPacked);
    return chunk.payload;
}

TEST(CodecDifferential, EncodedChunkEveryTruncation)
{
    for (const SampleCodec codec : kCodecs) {
        const auto payload = encodedPayload(codec, 1000, 7);
        const std::string what = codecName(codec);
        EXPECT_TRUE(expectSameDecode(payload, codec, 1000, what));
        for (std::size_t len = 0; len < payload.size(); ++len) {
            const std::vector<uint8_t> cut(
                payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(len));
            EXPECT_FALSE(expectSameDecode(
                cut, codec, 1000, what + " cut at " + std::to_string(len)));
        }
    }
}

TEST(CodecDifferential, TrailingGarbageRejectedAlike)
{
    dsp::Rng rng(0x7a11);
    for (const SampleCodec codec : kCodecs) {
        std::vector<std::pair<std::vector<uint8_t>, std::size_t>> payloads =
            {{encodedPayload(codec, 1000, 9), 1000}};
        for (const unsigned width : {0u, 7u, 13u, 33u, 40u})
            payloads.emplace_back(
                craftPayload(codec, width, kCount, true, rng), kCount);
        for (const auto &[payload, count] : payloads) {
            for (std::size_t extra = 1; extra <= 8; ++extra) {
                auto padded = payload;
                for (std::size_t k = 0; k < extra; ++k)
                    padded.push_back(static_cast<uint8_t>(rng()));
                EXPECT_FALSE(expectSameDecode(
                    padded, codec, count,
                    std::string(codecName(codec)) + " +" +
                        std::to_string(extra) + " bytes"));
            }
        }
    }
}

TEST(CodecDifferential, SeededByteFlips)
{
    dsp::Rng rng(0xf11b);
    for (const SampleCodec codec : kCodecs) {
        std::vector<std::pair<std::vector<uint8_t>, std::size_t>> payloads =
            {{encodedPayload(codec, 1000, 11), 1000}};
        for (const unsigned width : {1u, 9u, 24u, 40u})
            payloads.emplace_back(
                craftPayload(codec, width, kCount, true, rng), kCount);
        for (const auto &[payload, count] : payloads) {
            for (int trial = 0; trial < 300; ++trial) {
                auto flipped = payload;
                const std::size_t at = rng.below(flipped.size());
                flipped[at] ^= static_cast<uint8_t>(1 + rng.below(255));
                expectSameDecode(flipped, codec, count,
                                 std::string(codecName(codec)) +
                                     " flip at " + std::to_string(at));
            }
        }
    }
}

} // namespace
