/**
 * @file
 * Input synthesis and correctness references.
 *
 * The benchmark's inputs are generated from the run's seed and handed
 * to the program under test as EMCAP files, exactly as a user would:
 *
 *  - dense: a memory-bound capture.  Busy level 1.0 with sensor noise
 *    and a miss-like dip (8-14 samples, ~200-350 ns at 40 MHz) every
 *    ~2.8 us, 1% of them refresh-length; ~600k events in 64 Mi
 *    samples.  Stored with the lossless F32 packed codec.
 *  - impaired: a compute-bound capture with ~1/27 the dip density,
 *    then mild RF impairments (30 dB AWGN, 10% gain drift).  Stored
 *    QuantI16 and analysed with the signal-quality layer on.
 *  - fleet: many short dense captures, the uploads of a device fleet.
 *
 * The references come from the streaming paths (EmProf::analyze for a
 * file, SessionPipeline for an upload), which every other path must
 * match bit for bit (DESIGN.md §8).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "dsp/impairment.hpp"
#include "dsp/rng.hpp"
#include "inputs.hpp"
#include "serve/session_pipeline.hpp"
#include "store/capture_reader.hpp"
#include "store/capture_writer.hpp"
#include "util.hpp"

using namespace emprof;

namespace perfbench {

namespace {

constexpr double kSampleRateHz = 40e6;
constexpr double kClockHz = 1e9;

/** Busy plateau with noise and dips; @p minGap/@p spanGap set density. */
dsp::TimeSeries
dipSeries(std::size_t total, uint64_t seed, std::size_t minGap,
          std::size_t spanGap)
{
    dsp::TimeSeries s;
    s.sampleRateHz = kSampleRateHz;
    s.samples.resize(total);
    dsp::Rng rng(seed);
    for (auto &x : s.samples)
        x = 1.0f + static_cast<float>(0.02 * (rng.uniform() - 0.5));
    std::size_t pos = 1000;
    while (pos + 120 < total) {
        const std::size_t len = rng.chance(0.01) ? 100 : 8 + rng.below(7);
        // The floor carries noise too: an exactly constant run would
        // read as a stuck-sample dropout to the quality layer.
        for (std::size_t i = pos; i < pos + len; ++i)
            s.samples[i] =
                0.2f + static_cast<float>(0.02 * (rng.uniform() - 0.5));
        pos += len + minGap + rng.below(spanGap);
    }
    return s;
}

bool
write(const std::string &path, const dsp::TimeSeries &series,
      store::SampleCodec codec)
{
    store::WriterOptions options;
    options.sampleRateHz = series.sampleRateHz;
    options.clockHz = kClockHz;
    options.deviceName = "perfbench";
    options.codec = codec;
    std::string error;
    if (!store::writeCapture(path, series, options, nullptr, &error)) {
        std::fprintf(stderr, "write %s: %s\n", path.c_str(), error.c_str());
        return false;
    }
    return true;
}

} // namespace

std::string
blobPath(const std::string &dir, std::size_t i)
{
    char name[32];
    std::snprintf(name, sizeof name, "/blob-%03zu.emcap", i);
    return dir + name;
}

bool
readBlob(const std::string &path, std::vector<uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return static_cast<bool>(in) || in.eof();
}

profiler::EmProfConfig
batchConfig(const store::CaptureInfo &info, bool resilient)
{
    // emprof_analyze's defaults: the recorded rate and clock apply.
    profiler::EmProfConfig config;
    config.sampleRateHz = info.sampleRateHz;
    if (info.clockHz > 0.0)
        config.clockHz = info.clockHz;
    config.signal.enabled = resilient;
    return config;
}

bool
localSession(const std::vector<uint8_t> &blob, std::string &digest,
             std::size_t *events)
{
    serve::SessionPipeline pipeline(profiler::EmProfConfig{});
    profiler::ProfileResult result;
    std::string error;
    bool ok = true;
    for (std::size_t off = 0; ok && off < blob.size(); off += kDataFrameBytes)
        ok = pipeline.feed(blob.data() + off,
                           std::min(kDataFrameBytes, blob.size() - off),
                           &error);
    if (!ok || !pipeline.finish(result, &error)) {
        std::fprintf(stderr, "local session: %s\n", error.c_str());
        return false;
    }
    digest = profileDigest(result, pipeline.decoder().info().totalSamples,
                           kServedTitle);
    if (events != nullptr)
        *events = result.events.size();
    return true;
}

int
cmdSynth(const Args &args)
{
    const std::string kind = args.str("kind");
    const auto seed = static_cast<uint64_t>(args.num("seed"));
    const auto samples = static_cast<std::size_t>(args.num("samples"));
    const std::string out = args.str("out");
    const auto t0 = Clock::now();
    std::size_t files = 1;
    if (kind == "dense") {
        if (!write(out, dipSeries(samples, seed, 40, 120),
                   store::SampleCodec::F32))
            return 1;
    } else if (kind == "impaired") {
        auto series = dipSeries(samples, seed, 1000, 4100);
        dsp::ImpairmentSpec spec;
        if (!dsp::parseImpairmentSpec("mild", spec))
            return 1;
        spec.seed = seed ^ 0x5eedull;
        dsp::applyImpairments(series, spec);
        if (!write(out, series, store::SampleCodec::QuantI16))
            return 1;
    } else if (kind == "fleet") {
        files = static_cast<std::size_t>(args.num("count"));
        for (std::size_t i = 0; i < files; ++i) {
            if (!write(blobPath(out, i),
                       dipSeries(samples, seed * 1000003ull + i, 40, 120),
                       store::SampleCodec::F32))
                return 1;
        }
    } else {
        std::fprintf(stderr, "unknown --kind %s\n", kind.c_str());
        return 2;
    }
    std::printf("%s\n", Json()
                            .num("files", static_cast<double>(files))
                            .num("seconds", secondsBetween(t0, Clock::now()))
                            .text()
                            .c_str());
    return 0;
}

int
cmdReference(const Args &args)
{
    const std::string capture = args.str("capture", "");
    if (!capture.empty()) {
        // One file: the streaming facade over the decoded capture.
        store::CaptureReader reader;
        dsp::TimeSeries series;
        std::string error;
        if (!reader.open(capture, &error) || !reader.readAll(series, &error)) {
            std::fprintf(stderr, "%s: %s\n", capture.c_str(), error.c_str());
            return 1;
        }
        const auto config =
            batchConfig(reader.info(), args.str("mode") == "resilient");
        const auto result = profiler::EmProf::analyze(series, config);
        std::printf(
            "%s\n",
            Json()
                .str("digest", profileDigest(result, series.samples.size(),
                                             kBatchTitle))
                .num("events", static_cast<double>(result.events.size()))
                .text()
                .c_str());
        return 0;
    }
    // A fleet: one served-path reference per upload, one per line.
    const std::string dir = args.str("dir");
    const auto count = static_cast<std::size_t>(args.num("count"));
    std::ofstream refs(args.str("refs"));
    std::size_t total_events = 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<uint8_t> blob;
        std::string digest;
        std::size_t events = 0;
        if (!readBlob(blobPath(dir, i), blob) ||
            !localSession(blob, digest, &events))
            return 1;
        refs << digest << "\n";
        total_events += events;
    }
    std::printf("%s\n",
                Json().num("events", static_cast<double>(total_events))
                    .text()
                    .c_str());
    return refs ? 0 : 1;
}

} // namespace perfbench
