/**
 * @file
 * Incremental chunk stitching: the sequential tail of chunked analysis.
 *
 * Chunked analysis (parallel batch, or a long-lived serving session
 * feeding chunks as they arrive off a socket) produces one ChunkResult
 * per contiguous span of samples.  ChunkStitcher consumes those results
 * *in order* and maintains exactly the state the streaming detector
 * would have had at each chunk boundary: the open-dip carry, the event
 * list so far, and the quality blocks.  finalize() then flushes the
 * open dip, applies the signal-quality layer and builds the report —
 * EmProf::finish() runs the same finalize() over the whole stream as
 * one chunk — so the stitched result is bit-identical to the
 * streaming path no matter how the input was cut into chunks — or how
 * long the gaps between feed() calls were.
 *
 * Chunk events arrive classified (analyzeChunkAuto classifies on the
 * worker); the stitcher classifies only the dips it emits itself —
 * those carried across a boundary and the one flushed at the end.  The
 * event list is kept as pieces, one per chunk, spliced together once in
 * finalize(): the rvalue feed() takes a chunk's event vector without
 * copying it, and the carry rule only ever drops a leading run of a
 * chunk's events, which a piece records as a count.
 *
 * This is the piece that makes analysis *resumable*: a server session
 * can feed a chunk, go idle for seconds while the next upload frame
 * crosses the network, and feed the next — the stitcher carries the
 * detector state across feeds with no buffered samples at all.
 *
 * The offline span runner (parallel_analyzer.cpp) drives it with
 * pool-ordered results, so the streaming, offline and served paths
 * share one stitch implementation.  See DESIGN.md §8 for the
 * carry/replay argument and §14 for the serving pipeline built on top.
 */

#ifndef EMPROF_PROFILER_STITCH_HPP
#define EMPROF_PROFILER_STITCH_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "profiler/batch_pipeline.hpp"
#include "profiler/profiler.hpp"

namespace emprof::profiler {

/**
 * Order-sensitive accumulator over ChunkResults.
 *
 * feed() must be called with contiguous, in-order chunks (chunk N's
 * begin == chunk N-1's end).  finalize() may be called exactly once;
 * the stitcher is single-use.
 */
class ChunkStitcher
{
  public:
    explicit ChunkStitcher(const EmProfConfig &config);

    /** Merge one chunk's result into the running streaming state;
     *  the chunk's surviving events are copied. */
    void feed(const ChunkResult &chunk);

    /** As above, but takes the chunk's event vector without copying. */
    void feed(ChunkResult &&chunk);

    /**
     * Flush the open dip (same rule as DipDetector::finish()), splice
     * the pieces, apply signal quality, and build the report over
     * @p totalSamples.
     */
    ProfileResult finalize(uint64_t totalSamples);

    /** Samples of chunk prefixes replayed into carried dips so far. */
    uint64_t replayedSamples() const { return replayedSamples_; }

    /** Dips carried open across a chunk boundary so far. */
    uint64_t carriedDips() const { return carriedDips_; }

  private:
    /** A run of the final event list: events[skip..] in order. */
    struct Piece
    {
        std::vector<StallEvent> events;
        std::size_t skip = 0;
    };

    /**
     * Advance the carry over @p chunk and take its quality blocks.
     * @return How many leading chunk events the carry rule drops.
     */
    std::size_t carryOver(const ChunkResult &chunk);

    void emitCarry();

    EmProfConfig config_;
    uint64_t minDuration_;
    std::vector<Piece> pieces_;
    std::vector<SignalBlock> blocks_;
    DipDetector::DipState carry_;
    uint64_t carriedDips_ = 0;
    uint64_t replayedSamples_ = 0;
    bool finalized_ = false;
};

} // namespace emprof::profiler

#endif // EMPROF_PROFILER_STITCH_HPP
