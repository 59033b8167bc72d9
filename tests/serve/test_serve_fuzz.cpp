/**
 * @file
 * Seeded mutation fuzz of the served decoders, in the style of
 * tests/store/test_store_fuzz.cpp: EmcapStreamDecoder, and parseFrame
 * with the Report / OpenAck / Error payload decoders behind it.
 *
 * Mutations are byte flips, truncations, splices of another input and
 * inflated length fields (with the header CRC fixed up where one would
 * otherwise stop the input at the door).  Every input must end in a
 * clean verdict — success, or failure with a typed message — and never
 * in undefined behaviour: the ASan/UBSan CI job runs this file.  The
 * stream decoder must also never buffer more than one declared chunk,
 * i.e. sizeof(ChunkHeader) plus what checkChunkHeader() lets a header
 * declare.
 */

#include <cstddef>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capture_bytes.hpp"
#include "dsp/rng.hpp"
#include "serve/emcap_stream.hpp"
#include "serve/frame.hpp"

using namespace emprof;

namespace {

/** The largest payload checkChunkHeader lets a chunk declare: 8 bytes
 *  per sample + 64, for kMaxChunkSamples samples. */
constexpr uint64_t kMaxPayload = 8 * uint64_t{store::kMaxChunkSamples} + 64;

/** The most one element may hold: a chunk header plus its payload. */
constexpr uint64_t kMaxPending = sizeof(store::ChunkHeader) + kMaxPayload;

std::vector<std::vector<uint8_t>>
captureCorpus()
{
    dsp::TimeSeries series;
    series.sampleRateHz = 40e6;
    dsp::Rng rng(7);
    for (int i = 0; i < 600; ++i) {
        const float noise = 0.02f * static_cast<float>(rng.uniform() - 0.5);
        series.samples.push_back(((i / 150) % 2 ? 0.3f : 1.0f) + noise);
    }
    std::vector<std::vector<uint8_t>> corpus;
    store::WriterOptions opt;
    opt.sampleRateHz = 40e6;
    opt.chunkSamples = 128;
    corpus.push_back(test::captureBytes(series, opt, "fuzz_f32.emcap"));
    opt.codec = store::SampleCodec::QuantI16;
    opt.quantBits = 12;
    opt.chunkSamples = 77;
    corpus.push_back(test::captureBytes(series, opt, "fuzz_i16.emcap"));
    opt.codec = store::SampleCodec::F32;
    opt.compress = false;
    opt.chunkSamples = 1;
    series.samples.resize(20);
    corpus.push_back(test::captureBytes(series, opt, "fuzz_raw1.emcap"));
    return corpus;
}

/** Offsets of every ChunkHeader in a well-formed capture. */
std::vector<std::size_t>
chunkOffsets(const std::vector<uint8_t> &bytes)
{
    store::FileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    std::vector<std::size_t> offsets;
    uint64_t samples = 0;
    std::size_t at = sizeof(header);
    while (samples < header.totalSamples) {
        store::ChunkHeader chunk;
        std::memcpy(&chunk, bytes.data() + at, sizeof(chunk));
        offsets.push_back(at);
        samples += chunk.sampleCount;
        at += sizeof(chunk) + chunk.payloadBytes;
    }
    return offsets;
}

uint32_t
hostileU32(dsp::Rng &rng)
{
    const uint32_t values[] = {
        0,
        1,
        static_cast<uint32_t>(store::kMaxChunkSamples),
        static_cast<uint32_t>(store::kMaxChunkSamples + 1),
        static_cast<uint32_t>(kMaxPayload),
        static_cast<uint32_t>(serve::kMaxFramePayload),
        static_cast<uint32_t>(serve::kMaxFramePayload + 1),
        0x7fffffffu,
        0xffffffffu,
        static_cast<uint32_t>(rng()),
    };
    return values[rng.below(std::size(values))];
}

void
putU32(std::vector<uint8_t> &bytes, std::size_t at, uint32_t v)
{
    if (at + sizeof(v) <= bytes.size())
        std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/** Flips, truncation, or a splice of @p donor: the generic mutations. */
void
mutateBytes(std::vector<uint8_t> &bytes, const std::vector<uint8_t> &donor,
            dsp::Rng &rng)
{
    switch (rng.below(3)) {
    case 0:
        for (std::size_t e = 1 + rng.below(8); e > 0; --e)
            bytes[rng.below(bytes.size())] ^=
                static_cast<uint8_t>(1 + rng.below(255));
        break;
    case 1:
        bytes.resize(rng.below(bytes.size() + 1));
        break;
    default: {
        // Replace a random range with a random range of the donor.
        const std::size_t at = rng.below(bytes.size() + 1);
        const std::size_t cut = rng.below(bytes.size() - at + 1);
        const std::size_t from = rng.below(donor.size());
        const std::size_t len = rng.below(donor.size() - from + 1);
        bytes.erase(bytes.begin() + static_cast<long>(at),
                    bytes.begin() + static_cast<long>(at + cut));
        bytes.insert(bytes.begin() + static_cast<long>(at),
                     donor.begin() + static_cast<long>(from),
                     donor.begin() + static_cast<long>(from + len));
        break;
    }
    }
}

/** Inflate an EMCAP length field: a chunk's sampleCount or payloadBytes,
 *  the footer's chunk count, or the header's totalSamples (re-CRC'd). */
void
inflateEmcap(std::vector<uint8_t> &bytes, dsp::Rng &rng)
{
    const auto chunks = chunkOffsets(bytes);
    switch (rng.below(4)) {
    case 0:
        putU32(bytes,
               chunks[rng.below(chunks.size())] +
                   offsetof(store::ChunkHeader, sampleCount),
               hostileU32(rng));
        break;
    case 1:
        putU32(bytes,
               chunks[rng.below(chunks.size())] +
                   offsetof(store::ChunkHeader, payloadBytes),
               hostileU32(rng));
        break;
    case 2:
        putU32(bytes, bytes.size() - sizeof(store::FooterTail),
               hostileU32(rng));
        break;
    default: {
        store::FileHeader header;
        std::memcpy(&header, bytes.data(), sizeof(header));
        header.totalSamples = rng.chance(0.5) ? ~uint64_t{0} >> rng.below(64)
                                              : hostileU32(rng);
        header.headerCrc = store::fileHeaderCrc(header);
        std::memcpy(bytes.data(), &header, sizeof(header));
        break;
    }
    }
}

TEST(ServeFuzz, EmcapStreamMutationsEndTypedWithinOneChunk)
{
    const auto corpus = captureCorpus();
    dsp::Rng rng(1234);
    int accepted = 0;
    for (int round = 0; round < 4000; ++round) {
        auto bad = corpus[rng.below(corpus.size())];
        if (rng.chance(0.3))
            inflateEmcap(bad, rng);
        else
            mutateBytes(bad, corpus[rng.below(corpus.size())], rng);

        serve::EmcapStreamDecoder decoder;
        std::vector<dsp::Sample> out;
        std::string error;
        bool ok = true;
        for (std::size_t off = 0; ok && off < bad.size();) {
            const std::size_t len =
                std::min<std::size_t>(1 + rng.below(700), bad.size() - off);
            ok = decoder.feed(bad.data() + off, len, out, &error);
            off += len;
            ASSERT_LE(decoder.bytesConsumed() - decoder.resumableOffset(),
                      kMaxPending)
                << "round " << round;
            if (decoder.headerReady()) {
                ASSERT_LE(out.size(), decoder.info().totalSamples);
            }
        }
        ok = ok && decoder.complete(&error);
        if (ok)
            ++accepted;
        else
            EXPECT_FALSE(error.empty()) << "round " << round;
    }
    // Some mutations are no-ops (an unchanged splice, a full-length
    // truncation); nearly all must be caught.
    EXPECT_LT(accepted, 400);
}

TEST(ServeFuzz, ChunkAtThePayloadBoundBuffersOneChunkThenFails)
{
    // A header that admits a maximal chunk, then a chunk header that
    // declares the largest payload checkChunkHeader allows, then junk.
    const auto count = static_cast<uint32_t>(store::kMaxChunkSamples);
    store::ChunkHeader chunk{};
    chunk.encoding = static_cast<uint32_t>(store::ChunkEncoding::DeltaPacked);
    chunk.sampleCount = count;
    chunk.payloadBytes =
        static_cast<uint32_t>(kMaxPayload);
    std::vector<uint8_t> head;
    test::appendBytes(head, test::validHeader(count));
    test::appendBytes(head, chunk);

    serve::EmcapStreamDecoder decoder;
    std::vector<dsp::Sample> out;
    std::string error;
    ASSERT_TRUE(decoder.feed(head.data(), head.size(), out, &error)) << error;
    const std::vector<uint8_t> junk(64 << 10, 0x5A);
    bool ok = true;
    uint64_t fed = 0;
    while (ok && fed <= chunk.payloadBytes) {
        ok = decoder.feed(junk.data(), junk.size(), out, &error);
        fed += junk.size();
        ASSERT_LE(decoder.bytesConsumed() - decoder.resumableOffset(),
                  kMaxPending);
    }
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
    EXPECT_TRUE(out.empty());

    // One byte more is refused at the header, before anything buffers.
    ++chunk.payloadBytes;
    head.resize(sizeof(store::FileHeader));
    test::appendBytes(head, chunk);
    serve::EmcapStreamDecoder refused;
    EXPECT_FALSE(refused.feed(head.data(), head.size(), out, &error));
    EXPECT_NE(error.find("implausible"), std::string::npos) << error;
    EXPECT_EQ(refused.bytesConsumed(), head.size());
}

std::vector<uint8_t>
frameStream(const std::vector<uint8_t> &capture)
{
    std::vector<uint8_t> s;
    serve::OpenRequest open{};
    open.flags = serve::kOpenResume;
    open.resumeFrom = serve::kResumeQuery;
    serve::appendFrame(s, serve::FrameType::Open, &open, sizeof(open));
    for (std::size_t off = 0; off < capture.size(); off += 400)
        serve::appendFrame(s, serve::FrameType::Data, capture.data() + off,
                           std::min<std::size_t>(400, capture.size() - off));
    serve::appendFrame(s, serve::FrameType::Finish, nullptr, 0);

    std::vector<profiler::StallEvent> events(3);
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].startSample = 100 * i;
        events[i].endSample = 100 * i + 9;
        events[i].durationNs = 250.0;
    }
    const auto report =
        serve::encodeReportPayload(0, 600, 1.0, events, "report text");
    serve::appendFrame(s, serve::FrameType::Report, report.data(),
                       report.size());
    serve::SessionId id{};
    id[0] = 0x42;
    const auto ack = serve::encodeOpenAckPayload(
        id, 4096, serve::SessionState::Resumed);
    serve::appendFrame(s, serve::FrameType::OpenAck, ack.data(), ack.size());
    const auto busy =
        serve::encodeErrorPayload(serve::ErrorCode::Busy, "busy");
    serve::appendFrame(s, serve::FrameType::Error, busy.data(), busy.size());
    const auto retry = serve::encodeRetryAfterPayload(250, "later");
    serve::appendFrame(s, serve::FrameType::Error, retry.data(),
                       retry.size());
    const uint8_t health = 0;
    serve::appendFrame(s, serve::FrameType::Health, &health, 1);
    return s;
}

/** Run a frame's payload through its decoder; a failure must say why. */
void
decodePayload(const serve::Frame &frame)
{
    std::string error;
    bool ok = true;
    switch (frame.type) {
    case serve::FrameType::Report: {
        serve::DecodedReport report;
        ok = serve::decodeReportPayload(frame.payload, report, &error);
        if (ok) {
            EXPECT_LE(report.events.size() * sizeof(serve::WireEvent),
                      frame.payload.size());
        }
        break;
    }
    case serve::FrameType::OpenAck: {
        serve::SessionId id;
        uint64_t offset = 0;
        serve::SessionState state;
        ok = serve::decodeOpenAckPayload(frame.payload, id, offset, state,
                                         &error);
        break;
    }
    case serve::FrameType::Error: {
        serve::ErrorCode code;
        std::string message;
        uint32_t retry_ms = 0;
        // A payload too short for its code is reported as Internal
        // with the raw bytes as the message: typed, if not by error.
        (void)serve::decodeErrorPayload(frame.payload, code, message,
                                        &retry_ms);
        EXPECT_LE(message.size(), frame.payload.size());
        break;
    }
    default:
        break;
    }
    if (!ok) {
        EXPECT_FALSE(error.empty());
    }
}

/** parseFrame over the whole buffer, as the server's read loop does. */
void
parseAll(const std::vector<uint8_t> &bytes, int round)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        serve::Frame frame;
        std::string error;
        const long used = serve::parseFrame(bytes.data() + off,
                                            bytes.size() - off, frame, &error);
        if (used < 0) {
            EXPECT_FALSE(error.empty()) << "round " << round;
            return;
        }
        if (used == 0)
            return; // an incomplete frame: the server waits for more
        ASSERT_LE(static_cast<std::size_t>(used), bytes.size() - off);
        ASSERT_LE(frame.payload.size(), serve::kMaxFramePayload);
        decodePayload(frame);
        off += static_cast<std::size_t>(used);
    }
}

/** Offsets of every FrameHeader in a well-formed frame stream. */
std::vector<std::size_t>
frameOffsets(const std::vector<uint8_t> &bytes)
{
    std::vector<std::size_t> offsets;
    for (std::size_t at = 0; at < bytes.size();) {
        serve::FrameHeader h;
        std::memcpy(&h, bytes.data() + at, sizeof(h));
        offsets.push_back(at);
        at += sizeof(h) + h.payloadBytes;
    }
    return offsets;
}

TEST(ServeFuzz, FrameMutationsEndTyped)
{
    const auto corpus = captureCorpus();
    std::vector<std::vector<uint8_t>> streams;
    for (const auto &capture : corpus)
        streams.push_back(frameStream(capture));
    dsp::Rng rng(4321);
    for (int round = 0; round < 4000; ++round) {
        auto bad = streams[rng.below(streams.size())];
        if (rng.chance(0.3)) {
            const auto frames = frameOffsets(bad);
            putU32(bad,
                   frames[rng.below(frames.size())] +
                       offsetof(serve::FrameHeader, payloadBytes),
                   hostileU32(rng));
        } else {
            mutateBytes(bad, streams[rng.below(streams.size())], rng);
        }
        parseAll(bad, round);
    }
}

TEST(ServeFuzz, PayloadDecoderMutationsEndTyped)
{
    // The payload CRC stops mutated payloads at parseFrame; these reach
    // the decoders directly, inflated counts included.
    const auto frames = frameStream(captureCorpus()[0]);
    std::vector<serve::Frame> corpus;
    for (std::size_t off = 0; off < frames.size();) {
        serve::Frame frame;
        const long used = serve::parseFrame(frames.data() + off,
                                            frames.size() - off, frame);
        ASSERT_GT(used, 0);
        off += static_cast<std::size_t>(used);
        if (frame.type == serve::FrameType::Report ||
            frame.type == serve::FrameType::OpenAck ||
            frame.type == serve::FrameType::Error)
            corpus.push_back(std::move(frame));
    }
    ASSERT_EQ(corpus.size(), 4u);
    dsp::Rng rng(99);
    for (int round = 0; round < 4000; ++round) {
        serve::Frame frame = corpus[rng.below(corpus.size())];
        auto &p = frame.payload;
        if (rng.chance(0.3))
            putU32(p, 4 * rng.below(p.size() / 4 + 1), hostileU32(rng));
        else
            mutateBytes(p, corpus[rng.below(corpus.size())].payload, rng);
        decodePayload(frame);
    }
}

} // namespace
