/**
 * @file
 * The batch workloads: offline analysis of one EMCAP file.
 *
 * `analyze` is the timed run.  It calls the product's own entry point
 * (CaptureReader::open + ParallelAnalyzer::analyzeCapture), alternating
 * nproc workers and one worker, and checks every result against the
 * reference digest.
 *
 * `trace-batch` is the traced run.  It rebuilds the same analysis from
 * the layers' public calls -- CaptureReader::decodeChunk per stored
 * chunk, analyzeChunkAuto per span on a common::ThreadPool,
 * ChunkStitcher::feed and finalize -- with the same span partition as
 * ParallelAnalyzer, and records a span around each call.  After each
 * rebuild it probes the layers whose work sits inside those calls on
 * the same data: crc32c over the file bytes, slidingMinMaxBatch over
 * each span's samples, classifyStall and makeReport over the events.
 * The rebuild's result must equal the reference digest too.
 */

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/batch_minmax.hpp"
#include "inputs.hpp"
#include "profiler/batch_pipeline.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/report.hpp"
#include "profiler/stitch.hpp"
#include "store/crc32c.hpp"
#include "util.hpp"

using namespace emprof;

namespace perfbench {

namespace {

struct Job
{
    std::string capture;
    bool resilient = false;
    std::string digest; ///< expected result
};

Job
jobFrom(const Args &args)
{
    return {args.str("capture"), args.str("mode") == "resilient",
            args.str("digest")};
}

/** One run of the product path; returns seconds, or < 0 on failure. */
double
timedAnalysis(const Job &job, std::size_t threads, bool &correct)
{
    const auto t0 = Clock::now();
    store::CaptureReader reader;
    std::string error;
    if (!reader.open(job.capture, &error)) {
        std::fprintf(stderr, "open: %s\n", error.c_str());
        correct = false;
        return -1.0;
    }
    const auto config = batchConfig(reader.info(), job.resilient);
    profiler::ParallelAnalyzerConfig parallel;
    parallel.threads = threads;
    profiler::ProfileResult result;
    const bool ok = profiler::analyzeCaptureParallel(reader, config, result,
                                                     parallel, &error);
    const double seconds = secondsBetween(t0, Clock::now());
    if (!ok)
        std::fprintf(stderr, "analyze: %s\n", error.c_str());
    correct = ok && profileDigest(result, reader.info().totalSamples,
                                  kBatchTitle) == job.digest;
    return ok ? seconds : -1.0;
}

/** Per-layer figures of one traced rebuild. */
struct TracedRep
{
    double wallMs = 0.0; ///< open → finalize, the traced end to end
    bool correct = false;
    std::vector<std::pair<std::string, double>> metrics;
};

TracedRep
tracedRebuild(const Job &job, const std::vector<uint8_t> &fileBytes,
              SpanLog &log)
{
    TracedRep rep;
    const std::size_t workers = common::ThreadPool::hardwareThreads();
    const auto t0 = Clock::now();
    const uint64_t root = log.newId();

    store::CaptureReader reader;
    std::string error;
    {
        Scope s(log, "store.open", root);
        if (!reader.open(job.capture, &error)) {
            std::fprintf(stderr, "open: %s\n", error.c_str());
            return rep;
        }
    }
    const auto config = batchConfig(reader.info(), job.resilient);
    const uint64_t n = reader.info().totalSamples;

    // ParallelAnalyzer's decomposition: one span per worker, floored at
    // eight normalisation windows, aligned to stored chunks.
    const std::size_t chunk = std::max<std::size_t>(
        8 * config.normWindowSamples(), (n + workers - 1) / workers);
    struct Span
    {
        uint64_t begin, end;
    };
    std::vector<Span> spans;
    uint64_t next_begin = 0;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        const auto &entry = reader.chunk(c);
        const uint64_t end = entry.firstSample + entry.sampleCount;
        if (end - next_begin >= chunk || c + 1 == reader.chunkCount()) {
            spans.push_back({next_begin, end});
            next_begin = end;
        }
    }
    const uint64_t halo_depth = config.haloSamples();

    std::vector<profiler::ChunkResult> results(spans.size());
    std::vector<std::vector<dsp::Sample>> buffers(spans.size());
    std::vector<double> task_ms(spans.size(), 0.0);
    std::vector<char> task_ok(spans.size(), 0);
    std::vector<uint64_t> task_chunks(spans.size(), 0);
    std::vector<uint64_t> task_decoded(spans.size(), 0); // samples

    const auto p0 = Clock::now();
    double pool_us = 0.0;
    double parallel_ms = 0.0;
    std::size_t pool_threads = 0;
    {
        Scope parallel(log, "profiler.parallel", root);
        std::unique_ptr<common::ThreadPool> pool;
        {
            Scope s(log, "pool.setup", parallel.id());
            pool = std::make_unique<common::ThreadPool>(
                std::min(workers, spans.size()));
        }
        pool_us = secondsBetween(p0, Clock::now()) * 1e6;
        pool_threads = pool->size();
        const uint64_t parent = parallel.id();
        std::vector<std::future<void>> pending;
        for (std::size_t t = 0; t < spans.size(); ++t) {
            pending.push_back(pool->submit([&, t, parent] {
                const auto k0 = Clock::now();
                Scope task(log, "profiler.task", parent);
                const Span span = spans[t];
                const uint64_t first =
                    span.begin - std::min<uint64_t>(span.begin, halo_depth);
                auto &local = buffers[t];
                local.reserve(span.end - first);
                std::vector<dsp::Sample> decoded;
                for (std::size_t c = reader.chunkContaining(first);
                     c < reader.chunkCount(); ++c) {
                    const auto &entry = reader.chunk(c);
                    if (entry.firstSample >= span.end)
                        break;
                    std::string chunk_error;
                    {
                        Scope d(log, "store.decodeChunk", task.id());
                        if (!reader.decodeChunk(c, decoded, &chunk_error)) {
                            std::fprintf(stderr, "decode: %s\n",
                                         chunk_error.c_str());
                            return;
                        }
                    }
                    ++task_chunks[t];
                    task_decoded[t] += entry.sampleCount;
                    const uint64_t lo = std::max(first, entry.firstSample);
                    const uint64_t hi = std::min<uint64_t>(
                        span.end, entry.firstSample + entry.sampleCount);
                    local.insert(local.end(),
                                 decoded.begin() + static_cast<std::ptrdiff_t>(
                                                       lo - entry.firstSample),
                                 decoded.begin() + static_cast<std::ptrdiff_t>(
                                                       hi - entry.firstSample));
                }
                {
                    Scope a(log, "profiler.analyzeChunkAuto", task.id());
                    results[t] = profiler::analyzeChunkAuto(
                        local.data(), first, span.begin, span.end,
                        t + 1 == spans.size(), config);
                }
                task_ok[t] = 1;
                task_ms[t] = secondsBetween(k0, Clock::now()) * 1e3;
            }));
        }
        for (auto &f : pending)
            f.get();
        parallel_ms = secondsBetween(p0, Clock::now()) * 1e3;
    }
    if (std::count(task_ok.begin(), task_ok.end(), 1) !=
        static_cast<std::ptrdiff_t>(spans.size()))
        return rep;

    profiler::ChunkStitcher stitcher(config);
    const auto f0 = Clock::now();
    {
        Scope s(log, "profiler.stitch_feed", root);
        for (const auto &r : results)
            stitcher.feed(r);
    }
    const auto f1 = Clock::now();
    profiler::ProfileResult result;
    {
        Scope s(log, "profiler.finalize", root);
        result = stitcher.finalize(n);
    }
    const auto f2 = Clock::now();
    log.record("batch.analyze", t0, f2, root, 0, "");
    rep.wallMs = secondsBetween(t0, f2) * 1e3;
    rep.correct = profileDigest(result, n, kBatchTitle) == job.digest;

    // Layer probes on the same data, outside the end-to-end span.
    const uint64_t probes = log.newId();
    const auto q0 = Clock::now();
    double crc_ms = 0.0;
    {
        const auto c0 = Clock::now();
        Scope s(log, "store.crc32c", probes);
        volatile uint32_t crc =
            store::crc32c(0, fileBytes.data(), fileBytes.size());
        (void)crc;
        crc_ms = secondsBetween(c0, Clock::now()) * 1e3;
    }
    double minmax_ms = 0.0;
    double minmax_samples = 0.0;
    {
        std::vector<float> lo, hi;
        for (const auto &buf : buffers) {
            lo.resize(buf.size());
            hi.resize(buf.size());
            const auto m0 = Clock::now();
            Scope s(log, "dsp.slidingMinMaxBatch", probes);
            dsp::slidingMinMaxBatch(buf.data(), buf.size(),
                                    config.normWindowSamples(), lo.data(),
                                    hi.data());
            minmax_ms += secondsBetween(m0, Clock::now()) * 1e3;
            minmax_samples += static_cast<double>(buf.size());
        }
    }
    auto events = result.events;
    const auto k0 = Clock::now();
    {
        Scope s(log, "profiler.classifyStall", probes);
        for (auto &ev : events)
            profiler::classifyStall(ev, config);
    }
    const auto k1 = Clock::now();
    {
        Scope s(log, "profiler.makeReport", probes);
        const auto report = profiler::makeReport(events, config.sampleRateHz,
                                                 config.clockHz, n);
        volatile double sink = report.stallPercent;
        (void)sink;
    }
    const auto k2 = Clock::now();
    log.record("probes", q0, k2, probes, 0, "");

    const double decode_ms = log.totalMs("store.decodeChunk");
    uint64_t chunks = 0, decoded_samples = 0;
    for (std::size_t t = 0; t < spans.size(); ++t) {
        chunks += task_chunks[t];
        decoded_samples += task_decoded[t];
    }
    double task_sum = 0.0;
    double task_max = 0.0;
    for (const double d : task_ms) {
        task_sum += d;
        task_max = std::max(task_max, d);
    }
    const double task_mean = task_sum / static_cast<double>(task_ms.size());
    const double feed_ms = secondsBetween(f0, f1) * 1e3;
    const double finalize_ms = secondsBetween(f1, f2) * 1e3;

    rep.metrics = {
        {"store.decode_busy_ms", decode_ms},
        {"store.decode_mb_per_s",
         static_cast<double>(decoded_samples) * 4.0 / 1e3 / decode_ms},
        {"store.crc_mb_per_s",
         static_cast<double>(fileBytes.size()) / 1e3 / crc_ms},
        {"store.chunks", static_cast<double>(chunks)},
        {"dsp.minmax_busy_ms", minmax_ms},
        {"dsp.minmax_msamples_per_s", minmax_samples / 1e3 / minmax_ms},
        {"profiler.chunk_busy_ms", log.totalMs("profiler.analyzeChunkAuto")},
        {"profiler.parallel_wall_ms", parallel_ms},
        {"profiler.worker_idle_share",
         1.0 - task_sum / (static_cast<double>(pool_threads) * parallel_ms)},
        {"profiler.chunk_skew", task_max / task_mean},
        {"profiler.stitch_feed_ms", feed_ms},
        {"profiler.finalize_ms", finalize_ms},
        {"profiler.classify_ms", secondsBetween(k0, k1) * 1e3},
        {"profiler.report_ms", secondsBetween(k1, k2) * 1e3},
        {"profiler.serial_share", (feed_ms + finalize_ms) / rep.wallMs},
        {"profiler.events", static_cast<double>(result.events.size())},
        {"profiler.carried_dips", static_cast<double>(stitcher.carriedDips())},
        {"profiler.replayed_samples",
         static_cast<double>(stitcher.replayedSamples())},
        {"pool.setup_us", pool_us},
    };
    return rep;
}

} // namespace

int
cmdAnalyze(const Args &args)
{
    const Job job = jobFrom(args);
    const double budget = args.num("seconds");
    const std::size_t nproc = common::ThreadPool::hardwareThreads();
    std::vector<double> parallel_s, single_s;
    std::size_t attempted = 0, failed = 0;
    const auto once = [&](std::size_t threads, std::vector<double> *out) {
        bool correct = false;
        const double s = timedAnalysis(job, threads, correct);
        ++attempted;
        if (!correct)
            ++failed;
        else if (out != nullptr)
            out->push_back(s);
    };
    once(nproc, nullptr); // warm-up: page cache, code, allocator
    const auto t0 = Clock::now();
    while (secondsBetween(t0, Clock::now()) < budget ||
           std::min(parallel_s.size(), single_s.size()) < 3) {
        once(nproc, &parallel_s);
        once(1, &single_s);
        if (failed > 0)
            break;
    }
    std::printf("%s\n", Json()
                            .arr("parallel_s", parallel_s)
                            .arr("single_s", single_s)
                            .num("threads", static_cast<double>(nproc))
                            .num("attempted", static_cast<double>(attempted))
                            .num("failed", static_cast<double>(failed))
                            .text()
                            .c_str());
    return 0;
}

int
cmdPeak(const Args &args)
{
    // One analysis at nproc workers in a fresh process: its VmHWM is the
    // analysis' peak memory, free of earlier runs' heap growth.
    bool correct = false;
    timedAnalysis(jobFrom(args), common::ThreadPool::hardwareThreads(),
                  correct);
    std::printf("%s\n", Json()
                            .num("peak_rss_mb", peakRssMb())
                            .num("failed", correct ? 0.0 : 1.0)
                            .text()
                            .c_str());
    return 0;
}

int
cmdTraceBatch(const Args &args)
{
    const Job job = jobFrom(args);
    const double budget = args.num("seconds");
    const std::size_t nproc = common::ThreadPool::hardwareThreads();
    std::vector<uint8_t> file_bytes;
    if (!readBlob(job.capture, file_bytes))
        return 1;

    SpanLog log(true);
    std::vector<double> untraced_ms, traced_ms;
    std::vector<std::vector<std::pair<std::string, double>>> reps;
    std::size_t attempted = 0, failed = 0;
    bool warm = false;
    const auto t0 = Clock::now();
    while (secondsBetween(t0, Clock::now()) < budget || traced_ms.size() < 3) {
        bool correct = false;
        const double s = timedAnalysis(job, nproc, correct);
        ++attempted;
        failed += correct ? 0 : 1;
        log.clear();
        const TracedRep rep = tracedRebuild(job, file_bytes, log);
        ++attempted;
        failed += rep.correct ? 0 : 1;
        if (failed > 0)
            break;
        if (!warm) { // the first pair warms caches and code
            warm = true;
            continue;
        }
        untraced_ms.push_back(s * 1e3);
        traced_ms.push_back(rep.wallMs);
        reps.push_back(rep.metrics);
    }

    Json out;
    if (!reps.empty()) {
        for (std::size_t m = 0; m < reps.front().size(); ++m) {
            std::vector<double> values;
            for (const auto &r : reps)
                values.push_back(r[m].second);
            out.num(reps.front()[m].first, median(values));
        }
        out.num("trace.overhead_share",
                median(traced_ms) / median(untraced_ms) - 1.0);
    }
    out.num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .num("reps", static_cast<double>(traced_ms.size()));
    if (!log.writeChrome(args.str("trace-out"), 1))
        return 1;
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace perfbench
