#include "store/chunk_codec.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>

namespace emprof::store {

namespace {

/** Deltas per bit-packed miniblock. */
constexpr std::size_t kMiniblock = 128;

/**
 * Widest legal packed value: f32 bit patterns delta in (-2^32, 2^32),
 * zig-zag < 2^33.  Anything wider in a payload is corruption.
 */
constexpr unsigned kMaxWidth = 40;

uint64_t
zigzag(int64_t d)
{
    return (static_cast<uint64_t>(d) << 1) ^
           static_cast<uint64_t>(d >> 63);
}

int64_t
unzigzag(uint64_t z)
{
    return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

/** Integer a chunk sample maps to before delta coding. */
int64_t
sampleToInt(dsp::Sample x, SampleCodec codec, float scale, unsigned bits)
{
    if (codec == SampleCodec::F32) {
        uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        return static_cast<int64_t>(u);
    }
    return quantize(x, scale, bits);
}

dsp::Sample
intToSample(int64_t v, SampleCodec codec, float scale)
{
    if (codec == SampleCodec::F32) {
        const auto u = static_cast<uint32_t>(v);
        float x;
        std::memcpy(&x, &u, sizeof(x));
        return x;
    }
    return static_cast<float>(v) * scale;
}

/** Is @p v a representable integer for @p codec?  (Decode guard.) */
bool
intInRange(int64_t v, SampleCodec codec)
{
    if (codec == SampleCodec::F32)
        return v >= 0 && v <= 0xFFFFFFFFll;
    return v >= -32768 && v <= 32767;
}

struct BitWriter
{
    std::vector<uint8_t> &out;
    uint64_t acc = 0;
    unsigned bits = 0;

    void
    put(uint64_t v, unsigned width)
    {
        if (width == 0)
            return;
        acc |= (v & (~uint64_t{0} >> (64 - width))) << bits;
        bits += width;
        while (bits >= 8) {
            out.push_back(static_cast<uint8_t>(acc));
            acc >>= 8;
            bits -= 8;
        }
    }

    void
    byteAlign()
    {
        if (bits != 0) {
            out.push_back(static_cast<uint8_t>(acc));
            acc = 0;
            bits = 0;
        }
    }
};

/**
 * LSB-first bit reader.  While at least 8 payload bytes remain, a
 * refill is one unaligned little-endian 8-byte load that tops the
 * accumulator up with as many whole bytes as fit; near the end it
 * falls back to one byte at a time.  Either way a read fails exactly
 * when the bits left in the accumulator plus the unread bytes cannot
 * cover it, so a malformed payload is rejected at the same read as a
 * byte-at-a-time reader would.  Bits above `bits` in the accumulator
 * are the low bits of byte *p, loaded early; OR-ing that byte in again
 * leaves them unchanged.
 */
struct BitReader
{
    const uint8_t *p;
    const uint8_t *end;
    uint64_t acc = 0;
    unsigned bits = 0;

    bool
    get(unsigned width, uint64_t &v)
    {
        if (bits < width) {
            if (end - p >= 8) {
                uint64_t word;
                std::memcpy(&word, p, sizeof(word));
                acc |= word << bits;
                const unsigned bytes = (63 - bits) >> 3;
                p += bytes;
                bits += 8 * bytes;
            } else {
                while (bits < width) {
                    if (p == end)
                        return false;
                    acc |= static_cast<uint64_t>(*p++) << bits;
                    bits += 8;
                }
            }
        }
        v = width == 0 ? 0 : acc & (~uint64_t{0} >> (64 - width));
        acc >>= width;
        bits -= width;
        return true;
    }

    /** Drop the partly read byte and hand back the unread whole bytes
     *  a word refill took early. */
    void
    byteAlign()
    {
        p -= bits >> 3;
        acc = 0;
        bits = 0;
    }
};

/**
 * The miniblocks after the first value (out[0] = @p prev).  Templated
 * on the codec so the per-sample range check and conversion compile to
 * straight-line code.
 */
template <SampleCodec Codec>
bool
decodePacked(BitReader &reader, std::size_t count, float scale,
             int64_t prev, dsp::Sample *out)
{
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
            prev += unzigzag(z);
            if (!intInRange(prev, Codec))
                return false;
            out[i] = intToSample(prev, Codec, scale);
        }
        reader.byteAlign();
    }
    // The encoder emits exactly this many bytes; anything trailing is
    // corruption the CRC may have missed only in adversarial settings.
    return reader.p == reader.end;
}

} // namespace

int32_t
quantize(dsp::Sample x, float scale, unsigned bits)
{
    const auto qmax =
        static_cast<int32_t>((uint32_t{1} << (bits - 1)) - 1);
    if (!(scale > 0.0f) || !std::isfinite(x))
        return 0;
    const long q = std::lround(static_cast<double>(x) /
                               static_cast<double>(scale));
    if (q > qmax)
        return qmax;
    if (q < -qmax)
        return -qmax;
    return static_cast<int32_t>(q);
}

EncodedChunk
encodeChunk(const dsp::Sample *samples, std::size_t count,
            const EncoderOptions &options)
{
    EncodedChunk chunk;

    if (options.codec == SampleCodec::QuantI16) {
        float max_abs = 0.0f;
        for (std::size_t i = 0; i < count; ++i) {
            const float a = std::fabs(samples[i]);
            if (std::isfinite(a) && a > max_abs)
                max_abs = a;
        }
        const auto qmax = static_cast<float>(
            (uint32_t{1} << (options.quantBits - 1)) - 1);
        // Floor at the smallest normal float: an all-denormal chunk
        // would otherwise underflow the scale to 0, which quantize()
        // treats as invalid and the whole chunk would decode as zeros.
        chunk.scale = max_abs > 0.0f
                          ? std::max(max_abs / qmax, FLT_MIN)
                          : 1.0f;
    }

    if (count == 0)
        return chunk;

    // Integer stream, then zig-zagged deltas of it.
    std::vector<int64_t> values(count);
    for (std::size_t i = 0; i < count; ++i)
        values[i] = sampleToInt(samples[i], options.codec, chunk.scale,
                                options.quantBits);

    const std::size_t raw_bytes =
        count * (options.codec == SampleCodec::F32 ? 4 : 2);

    std::size_t packed_bytes = 0;
    std::vector<uint8_t> widths;
    if (options.compress) {
        packed_bytes = 8; // first value, stored verbatim
        for (std::size_t g = 1; g < count; g += kMiniblock) {
            const std::size_t n = std::min(kMiniblock, count - g);
            uint64_t worst = 0;
            for (std::size_t i = g; i < g + n; ++i)
                worst |= zigzag(values[i] - values[i - 1]);
            const auto width =
                static_cast<unsigned>(std::bit_width(worst));
            widths.push_back(static_cast<uint8_t>(width));
            packed_bytes += 1 + (n * width + 7) / 8;
        }
    }

    if (!options.compress || packed_bytes >= raw_bytes) {
        // Raw passthrough: verbatim little-endian integer array.
        chunk.encoding = ChunkEncoding::Raw;
        chunk.payload.resize(raw_bytes);
        if (options.codec == SampleCodec::F32) {
            std::memcpy(chunk.payload.data(), samples, raw_bytes);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                const auto q = static_cast<int16_t>(values[i]);
                std::memcpy(chunk.payload.data() + 2 * i, &q, 2);
            }
        }
        return chunk;
    }

    chunk.encoding = ChunkEncoding::DeltaPacked;
    chunk.payload.reserve(packed_bytes);
    chunk.payload.resize(8);
    const auto first = static_cast<uint64_t>(values[0]);
    std::memcpy(chunk.payload.data(), &first, 8);

    BitWriter writer{chunk.payload};
    std::size_t block = 0;
    for (std::size_t g = 1; g < count; g += kMiniblock) {
        const std::size_t n = std::min(kMiniblock, count - g);
        const unsigned width = widths[block++];
        chunk.payload.push_back(static_cast<uint8_t>(width));
        for (std::size_t i = g; i < g + n; ++i)
            writer.put(zigzag(values[i] - values[i - 1]), width);
        writer.byteAlign();
    }
    return chunk;
}

bool
decodeChunk(const uint8_t *payload, std::size_t payloadBytes,
            ChunkEncoding encoding, SampleCodec codec, float scale,
            std::size_t count, dsp::Sample *out)
{
    if (codec != SampleCodec::F32 && codec != SampleCodec::QuantI16)
        return false;
    if (count == 0)
        return payloadBytes == 0;

    if (encoding == ChunkEncoding::Raw) {
        const std::size_t width = codec == SampleCodec::F32 ? 4 : 2;
        if (payloadBytes != count * width)
            return false;
        if (codec == SampleCodec::F32) {
            std::memcpy(out, payload, payloadBytes);
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                int16_t q;
                std::memcpy(&q, payload + 2 * i, 2);
                out[i] = static_cast<float>(q) * scale;
            }
        }
        return true;
    }

    if (encoding != ChunkEncoding::DeltaPacked || payloadBytes < 8)
        return false;

    uint64_t first;
    std::memcpy(&first, payload, 8);
    auto prev = static_cast<int64_t>(first);
    if (!intInRange(prev, codec))
        return false;
    out[0] = intToSample(prev, codec, scale);

    BitReader reader{payload + 8, payload + payloadBytes};
    return codec == SampleCodec::F32
               ? decodePacked<SampleCodec::F32>(reader, count, scale, prev,
                                                out)
               : decodePacked<SampleCodec::QuantI16>(reader, count, scale,
                                                     prev, out);
}

} // namespace emprof::store
