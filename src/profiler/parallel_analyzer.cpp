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
#include "profiler/report.hpp"
#include "profiler/stitch.hpp"
#include "store/capture_reader.hpp"

namespace emprof::profiler {

namespace {

/**
 * Worker count actually used: the requested count (0 = all cores)
 * clamped to the hardware concurrency.  The per-chunk scan is purely
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

/** Expose the effective parallel decomposition as gauges. */
void
recordParallelGauges(std::size_t workers, std::size_t chunk,
                     std::size_t num_chunks)
{
    if (!obs::MetricsRegistry::enabled())
        return;
    auto &registry = obs::MetricsRegistry::instance();
    registry.gauge("parallel.workers_effective")
        .set(static_cast<int64_t>(workers));
    registry.gauge("parallel.chunk_samples_effective")
        .set(static_cast<int64_t>(chunk));
    registry.gauge("parallel.chunks")
        .set(static_cast<int64_t>(num_chunks));
    registry.gauge("parallel.batch_kernel")
        .set(batchPipelineActive() ? 1 : 0);
}

/**
 * Sequential tail shared by both parallel paths: move the pool-ordered
 * chunk results (already classified on the workers) into the
 * incremental stitcher (see stitch.hpp), then quarantine / report.  The
 * serving path drives the same ChunkStitcher one chunk at a time as
 * uploads arrive.
 */
ProfileResult
finalizeChunks(std::vector<ChunkResult> &&chunks, const EmProfConfig &config,
               uint64_t total_samples)
{
    EMPROF_OBS_STAGE("analyze.stitch");
    ChunkStitcher stitcher(config);
    for (auto &chunk : chunks)
        stitcher.feed(std::move(chunk));
    return stitcher.finalize(total_samples);
}

} // namespace

ParallelAnalyzer::ParallelAnalyzer(ParallelAnalyzerConfig config)
    : config_(config)
{}

ProfileResult
ParallelAnalyzer::analyze(const dsp::TimeSeries &magnitude,
                          EmProfConfig config) const
{
    if (magnitude.sampleRateHz > 0.0)
        config.sampleRateHz = magnitude.sampleRateHz;

    const std::size_t n = magnitude.samples.size();
    const std::size_t workers = effectiveWorkers(config_.threads);

    std::size_t chunk = config_.chunkSamples;
    if (chunk == 0) {
        // Automatic decomposition.  The chunked path only pays off when
        // there is either real parallelism or the batch kernel; tiny
        // inputs and scalar single-worker runs degrade to streaming.
        if (n < config_.minParallelSamples ||
            (workers <= 1 && !batchPipelineActive()))
            return EmProf::analyze(magnitude, config);
        // One span per worker: static partitioning, no queue
        // contention.  The floor of eight normalisation windows keeps
        // the halo re-feed (one window per chunk) under ~12% of each
        // chunk's work.
        chunk = std::max<std::size_t>(8 * config.normWindowSamples(),
                                      (n + workers - 1) / workers);
    }
    chunk = std::max<std::size_t>(chunk, 1);

    const std::size_t num_chunks = (n + chunk - 1) / chunk;
    if (num_chunks == 0)
        return EmProf::analyze(magnitude, config);
    recordParallelGauges(workers, chunk, num_chunks);

    EMPROF_OBS_STAGE("analyze.parallel");
    std::vector<ChunkResult> results(num_chunks);
    const auto &samples = magnitude.samples;
    const bool fast = config_.fastMathSimd;
    const auto run = [&, chunk, n](std::size_t c) {
        const uint64_t begin = static_cast<uint64_t>(c) * chunk;
        const uint64_t end = std::min<uint64_t>(begin + chunk, n);
        results[c] = analyzeChunkAuto(samples.data(), 0, begin, end,
                                      c + 1 == num_chunks, config, fast);
    };
    if (workers <= 1 || num_chunks < 2) {
        // Explicitly-sized chunks still go through the chunk + stitch
        // machinery on one worker (results are identical; tests rely on
        // exercising the stitcher regardless of core count) — just
        // without spinning up a pool.
        for (std::size_t c = 0; c < num_chunks; ++c)
            run(c);
    } else {
        common::ThreadPool pool(std::min(workers, num_chunks));
        std::vector<std::future<void>> pending;
        pending.reserve(num_chunks);
        for (std::size_t c = 0; c < num_chunks; ++c)
            pending.push_back(pool.submit([&run, c] { run(c); }));
        for (auto &f : pending)
            f.get();
    }

    return finalizeChunks(std::move(results), config, n);
}

bool
ParallelAnalyzer::analyzeCapture(const store::CaptureReader &reader,
                                 EmProfConfig config, ProfileResult &out,
                                 std::string *error) const
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

    const std::size_t workers = effectiveWorkers(config_.threads);

    // Short inputs: decode once, run the streaming path — the same
    // fallback rule (and therefore the same result) as analyze().
    const auto streaming = [&]() {
        dsp::TimeSeries series;
        if (!reader.readAll(series, error))
            return false;
        out = EmProf::analyze(series, config);
        return true;
    };

    std::size_t chunk = config_.chunkSamples;
    if (chunk == 0) {
        if (n < config_.minParallelSamples ||
            (workers <= 1 && !batchPipelineActive()))
            return streaming();
        chunk = std::max<std::size_t>(8 * config.normWindowSamples(),
                                      (n + workers - 1) / workers);
    }
    chunk = std::max<std::size_t>(chunk, 1);

    // Analysis tasks aligned to stored-chunk boundaries, each spanning
    // enough stored chunks to reach the target analysis chunk size, so
    // no stored chunk is decoded twice except as a neighbour's halo.
    struct Span
    {
        uint64_t begin;
        uint64_t end;
    };
    std::vector<Span> spans;
    uint64_t next_begin = 0;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        const auto &entry = reader.chunk(c);
        const uint64_t end = entry.firstSample + entry.sampleCount;
        if (end - next_begin >= chunk ||
            c + 1 == reader.chunkCount()) {
            spans.push_back({next_begin, end});
            next_begin = end;
        }
    }
    if (spans.empty())
        return streaming();
    recordParallelGauges(workers, chunk, spans.size());

    EMPROF_OBS_STAGE("analyze.parallel");
    std::vector<ChunkResult> results(spans.size());
    std::atomic<bool> ok{true};
    std::mutex error_mutex;
    std::string first_error;
    const uint64_t halo_depth = config.haloSamples();
    const bool fast = config_.fastMathSimd;
    const auto run = [&](std::size_t t) {
        if (!ok.load(std::memory_order_relaxed))
            return; // a sibling already failed
        const Span span = spans[t];
        const uint64_t halo = std::min<uint64_t>(span.begin, halo_depth);
        std::vector<dsp::Sample> local;
        std::string chunk_error;
        if (!reader.readRange(span.begin - halo,
                              halo + (span.end - span.begin), local,
                              &chunk_error)) {
            ok.store(false, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (first_error.empty())
                first_error = chunk_error;
            return;
        }
        results[t] = analyzeChunkAuto(local.data(), span.begin - halo,
                                      span.begin, span.end,
                                      t + 1 == spans.size(), config,
                                      fast);
    };
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
    if (!ok.load()) {
        if (error != nullptr)
            *error = first_error;
        return false;
    }

    out = finalizeChunks(std::move(results), config, n);
    return true;
}

ProfileResult
analyzeParallel(const dsp::TimeSeries &magnitude, EmProfConfig config,
                ParallelAnalyzerConfig parallel)
{
    return ParallelAnalyzer(parallel).analyze(magnitude, config);
}

bool
analyzeCaptureParallel(const store::CaptureReader &reader,
                       EmProfConfig config, ProfileResult &out,
                       ParallelAnalyzerConfig parallel,
                       std::string *error)
{
    return ParallelAnalyzer(parallel).analyzeCapture(reader, config,
                                                     out, error);
}

ProfileResult
EmProf::analyzeParallel(const dsp::TimeSeries &magnitude,
                        EmProfConfig config, std::size_t threads)
{
    ParallelAnalyzerConfig parallel;
    parallel.threads = threads;
    return profiler::analyzeParallel(magnitude, config, parallel);
}

} // namespace emprof::profiler
