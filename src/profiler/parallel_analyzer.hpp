/**
 * @file
 * Parallel chunked batch analysis of recorded captures.
 *
 * A recorded capture is split into contiguous spans; every span is
 * normalised and dip-detected independently on a thread pool, and a
 * sequential stitch pass merges dips that straddle span boundaries.
 * The result is *bit-identical* to the streaming path (EmProf::analyze)
 * — same events, same sample indices, same depths — at N× real time on
 * N cores.  See DESIGN.md, "Parallel analysis & threading model", for
 * the chunk/halo diagram and the determinism argument.
 *
 * Two properties make exact equivalence possible:
 *
 *  1. Normalisation is a pure function of a bounded history: the value
 *     at sample i depends only on the last haloSamples() raw samples.
 *     Each span therefore re-feeds a "halo" of that many preceding
 *     samples into a fresh normaliser before its own range,
 *     reproducing the streaming envelope exactly.
 *
 *  2. The dip detector's cross-span dependence collapses at the first
 *     normalised sample above the exit threshold: whatever the incoming
 *     state was, the detector is guaranteed "not in a dip" right after
 *     it.  Each span records its *prefix* (the leading run of samples
 *     at or below exit) so the stitcher can replay those samples into a
 *     dip left open by the previous span, sample for sample, in
 *     order — preserving even the floating-point summation order of
 *     the depth accumulator.
 *
 * Both entry points plan spans and hand them to one shared runner; a
 * short input or a single worker is simply one span analysed inline,
 * and an empty input is zero spans.
 */

#ifndef EMPROF_PROFILER_PARALLEL_ANALYZER_HPP
#define EMPROF_PROFILER_PARALLEL_ANALYZER_HPP

#include <cstddef>
#include <string>

#include "dsp/types.hpp"
#include "profiler/profiler.hpp"

namespace emprof::store {
class CaptureReader;
}

namespace emprof::profiler {

/** Tuning knobs for the parallel batch analyzer. */
struct ParallelAnalyzerConfig
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    std::size_t threads = 0;

    /**
     * Span length in samples; 0 picks one automatically (one span per
     * effective worker — static partitioning — floored at
     * EmProfConfig::minSpanSamples() so the halo re-normalisation
     * overhead stays small).  An explicit value always runs that
     * decomposition, even on one worker (tests use tiny spans to
     * exercise boundary stitching regardless of core count).
     */
    std::size_t chunkSamples = 0;
};

/**
 * Analyse a whole recorded magnitude series.
 *
 * The series' own sample rate overrides config.sampleRateHz, as in
 * EmProf::analyze.
 */
ProfileResult analyzeParallel(const dsp::TimeSeries &magnitude,
                              EmProfConfig config,
                              ParallelAnalyzerConfig parallel = {});

/**
 * Analyse an EMCAP capture straight off disk.
 *
 * Spans are aligned to stored chunks; each worker reads its own span
 * plus halo via the footer index and decodes it concurrently with
 * everyone else's dip detection — the capture is never materialised in
 * one buffer, so peak memory is O(threads * span), and decode overlaps
 * analysis instead of serialising in a front-end loader.  The events
 * are bit-identical to readAll() + analyze() (and therefore to the
 * streaming path) for every thread count and chunk layout.
 *
 * The capture's sample rate overrides config.sampleRateHz; its clock
 * is NOT applied to config (callers decide, since a command line may
 * override the recorded clock).
 *
 * @retval false The config is invalid, or a chunk failed its CRC or
 *         decode; @p error (if non-null) says which.
 */
bool analyzeCaptureParallel(const store::CaptureReader &reader,
                            EmProfConfig config, ProfileResult &out,
                            ParallelAnalyzerConfig parallel = {},
                            std::string *error = nullptr);

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_PARALLEL_ANALYZER_HPP
