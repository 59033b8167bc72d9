#include "profiler/parallel_analyzer.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/stitch.hpp"
#include "store/capture_reader.hpp"

namespace emprof::profiler {

namespace {

/** Samples [begin, end) of the input, analysed as one unit. */
struct Span
{
    uint64_t begin;
    uint64_t end;
};

/**
 * Worker count actually used: the requested count (0 = all cores)
 * clamped to the hardware concurrency.  The per-span scan is purely
 * CPU-bound, so oversubscription only adds scheduling contention;
 * requests beyond the core count degrade gracefully to it.
 */
std::size_t
effectiveWorkers(std::size_t requested)
{
    const std::size_t hw = common::ThreadPool::hardwareThreads();
    const std::size_t want = requested == 0 ? hw : requested;
    return std::max<std::size_t>(1, std::min(want, hw));
}

/**
 * Target span length: the explicit chunkSamples, else one span per
 * worker (static partitioning, no queue contention) floored at
 * EmProfConfig::minSpanSamples().
 */
std::size_t
spanSamples(const ParallelAnalyzerConfig &parallel,
            const EmProfConfig &config, uint64_t n, std::size_t workers)
{
    if (parallel.chunkSamples != 0)
        return parallel.chunkSamples;
    return std::max<std::size_t>(
        config.minSpanSamples(),
        static_cast<std::size_t>((n + workers - 1) / workers));
}

/** Expose the effective parallel decomposition as gauges. */
void
recordParallelGauges(std::size_t workers, const std::vector<Span> &spans)
{
    if (!obs::MetricsRegistry::enabled())
        return;
    uint64_t longest = 0;
    for (const Span &span : spans)
        longest = std::max(longest, span.end - span.begin);
    auto &registry = obs::MetricsRegistry::instance();
    registry.gauge("parallel.workers_effective")
        .set(static_cast<int64_t>(workers));
    registry.gauge("parallel.chunk_samples_effective")
        .set(static_cast<int64_t>(longest));
    registry.gauge("parallel.chunks")
        .set(static_cast<int64_t>(spans.size()));
    registry.gauge("parallel.batch_kernel")
        .set(batchPipelineActive() ? 1 : 0);
}

/**
 * The one offline driver: analyse every span plus its halo with
 * analyzeChunkAuto — inline for one span or one worker, on a thread
 * pool otherwise — then stitch the results in order (see stitch.hpp)
 * into @p out.
 *
 * @p fetch(first, end, buffer, data, why) supplies the samples of
 * [first, end): it points @p data at sample `first`, optionally
 * filling the task-local @p buffer, and returns false (with a reason
 * in @p why) on failure.  The first failure's reason lands in
 * @p error and the remaining spans are skipped.
 */
template <typename Fetch>
bool
runSpans(const std::vector<Span> &spans, std::size_t workers,
         const EmProfConfig &config, uint64_t total, const Fetch &fetch,
         ProfileResult &out, std::string *error)
{
    recordParallelGauges(workers, spans);

    std::vector<ChunkResult> results(spans.size());
    std::atomic<bool> ok{true};
    std::mutex error_mutex;
    std::string first_error;
    const uint64_t halo_depth = config.haloSamples();
    const auto run = [&](std::size_t t) {
        if (!ok.load(std::memory_order_relaxed))
            return; // an earlier span already failed
        const Span span = spans[t];
        const uint64_t first =
            span.begin - std::min<uint64_t>(span.begin, halo_depth);
        std::vector<dsp::Sample> buffer;
        const dsp::Sample *data = nullptr;
        std::string span_error;
        if (!fetch(first, span.end, buffer, data, &span_error)) {
            ok.store(false, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (first_error.empty())
                first_error = span_error;
            return;
        }
        results[t] = analyzeChunkAuto(data, first, span.begin, span.end,
                                      t + 1 == spans.size(), config);
    };
    {
        EMPROF_OBS_STAGE("analyze.parallel");
        if (workers <= 1 || spans.size() < 2) {
            for (std::size_t t = 0; t < spans.size(); ++t)
                run(t);
        } else {
            common::ThreadPool pool(std::min(workers, spans.size()));
            std::vector<std::future<void>> pending;
            pending.reserve(spans.size());
            for (std::size_t t = 0; t < spans.size(); ++t)
                pending.push_back(pool.submit([&run, t] { run(t); }));
            for (auto &f : pending)
                f.get();
        }
    }
    if (!ok.load()) {
        if (error != nullptr)
            *error = first_error;
        return false;
    }

    EMPROF_OBS_STAGE("analyze.stitch");
    ChunkStitcher stitcher(config);
    for (auto &result : results)
        stitcher.feed(std::move(result));
    out = stitcher.finalize(total);
    return true;
}

} // namespace

ProfileResult
analyzeParallel(const dsp::TimeSeries &magnitude, EmProfConfig config,
                ParallelAnalyzerConfig parallel)
{
    if (magnitude.sampleRateHz > 0.0)
        config.sampleRateHz = magnitude.sampleRateHz;

    const uint64_t n = magnitude.samples.size();
    const std::size_t workers = effectiveWorkers(parallel.threads);
    const std::size_t span = spanSamples(parallel, config, n, workers);
    std::vector<Span> spans;
    for (uint64_t begin = 0; begin < n; begin += span)
        spans.push_back({begin, std::min<uint64_t>(begin + span, n)});

    const dsp::Sample *samples = magnitude.samples.data();
    const auto fetch = [samples](uint64_t first, uint64_t,
                                 std::vector<dsp::Sample> &,
                                 const dsp::Sample *&data, std::string *) {
        data = samples + first;
        return true;
    };
    ProfileResult out;
    runSpans(spans, workers, config, n, fetch, out, nullptr);
    return out;
}

bool
analyzeCaptureParallel(const store::CaptureReader &reader,
                       EmProfConfig config, ProfileResult &out,
                       ParallelAnalyzerConfig parallel, std::string *error)
{
    const store::CaptureInfo &info = reader.info();
    if (info.sampleRateHz > 0.0)
        config.sampleRateHz = info.sampleRateHz;

    std::string config_error;
    if (!config.validate(&config_error)) {
        if (error != nullptr)
            *error = "invalid profiler config: " + config_error;
        return false;
    }

    const uint64_t n = info.totalSamples;
    const std::size_t workers = effectiveWorkers(parallel.threads);
    const std::size_t span = spanSamples(parallel, config, n, workers);

    // Spans aligned to stored-chunk boundaries, each covering enough
    // stored chunks to reach the target span length, so no stored
    // chunk is decoded twice except as a neighbour's halo.
    std::vector<Span> spans;
    uint64_t next_begin = 0;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        const auto &entry = reader.chunk(c);
        const uint64_t end = entry.firstSample + entry.sampleCount;
        if (end - next_begin >= span || c + 1 == reader.chunkCount()) {
            spans.push_back({next_begin, end});
            next_begin = end;
        }
    }

    const auto fetch = [&reader](uint64_t first, uint64_t end,
                                 std::vector<dsp::Sample> &buffer,
                                 const dsp::Sample *&data,
                                 std::string *why) {
        if (!reader.readRange(first, end - first, buffer, why))
            return false;
        data = buffer.data();
        return true;
    };
    return runSpans(spans, workers, config, n, fetch, out, error);
}

} // namespace emprof::profiler
