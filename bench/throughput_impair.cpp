/**
 * @file
 * Resilience-layer throughput: impairment injection cost and the
 * overhead of the signal-quality path relative to the classic
 * pipeline.
 *
 * Measures, on a synthetic memory-bound capture (default 64 Mi
 * samples):
 *
 *   - applyImpairments() throughput for the mild and harsh presets,
 *   - streaming analysis with the resilience layer off vs. on,
 *   - 8-way parallel analysis with the layer off vs. on,
 *
 * and emits BENCH_impair.json so the overhead trajectory is tracked
 * across PRs.  The headline figure is the *streaming* overhead ratio
 * (streaming resilient / streaming off) — the key every prior
 * BENCH_impair.json carries, so the trajectory stays comparable.  The
 * parallel ratio is reported alongside; note it divides by the classic
 * batch kernel, so speeding the classic path up *raises* this ratio
 * even while resilient absolute throughput improves — compare the
 * per-mode samples_per_sec across PRs, not just the ratio.  Analysis
 * modes run an untimed warm-up and take the best of N timed runs,
 * with run-to-run variance in the JSON.
 *
 *   throughput_impair [--samples N] [--runs N] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/impairment.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "profiler/parallel_analyzer.hpp"
#include "profiler/profiler.hpp"

using namespace emprof;

namespace {

dsp::TimeSeries
syntheticCapture(std::size_t total)
{
    dsp::TimeSeries s;
    s.sampleRateHz = 40e6;
    s.samples.assign(total, 1.0f);
    dsp::Rng rng(0xca97);
    for (auto &x : s.samples)
        x += static_cast<float>(0.02 * (rng.uniform() - 0.5));
    std::size_t pos = 1000;
    while (pos + 120 < total) {
        const std::size_t len = rng.chance(0.01) ? 100 : 8 + rng.below(7);
        // Dips carry the same sensor noise as the busy level — an
        // exactly constant floor would (correctly) read as a
        // stuck-sample dropout to the quality classifier.
        for (std::size_t i = pos; i < pos + len; ++i)
            s.samples[i] =
                0.2f + static_cast<float>(0.02 * (rng.uniform() - 0.5));
        pos += len + 40 + rng.below(120);
    }
    return s;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Measurement
{
    std::string mode;
    double bestSec;
    double variance; // (worst - best) / best over the timed runs
    double samplesPerSec;
};

} // namespace

int
main(int argc, char **argv)
{
    std::size_t total = std::size_t{1} << 26; // 64 Mi samples
    std::size_t timed_runs = 3;
    std::string json_path = "BENCH_impair.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--samples") && i + 1 < argc)
            total = static_cast<std::size_t>(std::atoll(argv[++i]));
        else if (!std::strcmp(argv[i], "--runs") && i + 1 < argc)
            timed_runs = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::atoll(argv[++i])));
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else {
            std::fprintf(
                stderr,
                "usage: %s [--samples N] [--runs N] [--json PATH]\n",
                argv[0]);
            return 2;
        }
    }

    std::printf("synthesising %zu-sample capture...\n", total);
    const auto sig = syntheticCapture(total);
    dsp::TimeSeries warm;
    warm.sampleRateHz = sig.sampleRateHz;
    warm.samples.assign(sig.samples.begin(),
                        sig.samples.begin() +
                            static_cast<std::ptrdiff_t>(total / 8));

    std::vector<Measurement> runs;
    // Best of N timed invocations of fn(); warmup() runs untimed first.
    const auto time_best = [&](const std::string &mode, auto &&warmup,
                               auto &&fn) {
        warmup();
        double best = 0.0, worst = 0.0;
        for (std::size_t r = 0; r < timed_runs; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            fn();
            const auto t1 = std::chrono::steady_clock::now();
            const double sec = seconds(t0, t1);
            if (r == 0 || sec < best)
                best = sec;
            if (r == 0 || sec > worst)
                worst = sec;
        }
        runs.push_back({mode, best, (worst - best) / best,
                        static_cast<double>(total) / best});
        std::printf("%-22s: %7.3f s  %8.1f Msamples/s  (+-%.1f%%)\n",
                    mode.c_str(), best, runs.back().samplesPerSec / 1e6,
                    runs.back().variance * 100.0);
        return best;
    };

    // Injection throughput per preset (fresh copy per run: the
    // injection mutates in place).
    for (const char *preset : {"mild", "harsh"}) {
        dsp::ImpairmentSpec spec;
        if (!dsp::parseImpairmentSpec(preset, spec)) {
            std::fprintf(stderr, "preset %s failed to parse\n", preset);
            return 1;
        }
        auto copy = sig;
        time_best(
            std::string("impair ") + preset,
            [&] {
                auto w = warm;
                dsp::applyImpairments(w, spec);
            },
            [&] {
                copy.samples = sig.samples;
                dsp::applyImpairments(copy, spec);
            });
    }

    profiler::EmProfConfig config;
    config.clockHz = 1e9;

    const double stream_off = time_best(
        "streaming off",
        [&] { (void)profiler::EmProf::analyze(warm, config); },
        [&] { (void)profiler::EmProf::analyze(sig, config); });
    config.signal.enabled = true;
    const double stream_on = time_best(
        "streaming resilient",
        [&] { (void)profiler::EmProf::analyze(warm, config); },
        [&] { (void)profiler::EmProf::analyze(sig, config); });

    profiler::ParallelAnalyzerConfig pcfg;
    pcfg.threads = 8;
    config.signal.enabled = false;
    const double par_off = time_best(
        "parallel x8 off",
        [&] { (void)profiler::analyzeParallel(warm, config, pcfg); },
        [&] { (void)profiler::analyzeParallel(sig, config, pcfg); });
    config.signal.enabled = true;
    const double par_on = time_best(
        "parallel x8 resilient",
        [&] { (void)profiler::analyzeParallel(warm, config, pcfg); },
        [&] { (void)profiler::analyzeParallel(sig, config, pcfg); });

    std::printf("resilient overhead: streaming %.2fx (headline), "
                "parallel %.2fx\n",
                stream_on / stream_off, par_on / par_off);

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"throughput_impair\",\n"
                 "  \"samples\": %zu,\n"
                 "  \"sample_rate_hz\": 40000000.0,\n"
                 "  \"timed_runs_per_mode\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"resilient_overhead_streaming\": %.4f,\n"
                 "  \"resilient_overhead_parallel\": %.4f,\n"
                 "  \"runs\": [\n",
                 total, timed_runs, common::ThreadPool::hardwareThreads(),
                 stream_on / stream_off, par_on / par_off);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i];
        std::fprintf(f,
                     "    {\"mode\": \"%s\", \"seconds\": %.6f, "
                     "\"samples_per_sec\": %.1f, "
                     "\"run_variance\": %.4f}%s\n",
                     r.mode.c_str(), r.bestSec, r.samplesPerSec,
                     r.variance, i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
