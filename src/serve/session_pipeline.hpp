/**
 * @file
 * One served session's analysis pipeline: EMCAP bytes in, a finished
 * ProfileResult out, incrementally and with bounded memory.
 *
 * The pipeline chains three pieces that already guarantee streaming
 * bit-parity on their own:
 *
 *     EmcapStreamDecoder  →  analyzeChunkAuto  →  ChunkStitcher
 *     (bytes → samples)      (span → ChunkResult)  (carry + report)
 *
 * feed() appends decoded samples to a working buffer; whenever the
 * buffer holds strictly more than one analysis span past the current
 * position, the span is analysed and fed to the stitcher, and the
 * buffer is trimmed back to the halo the *next* span needs.  "Strictly
 * more" keeps at least one unanalysed sample until finish(), so the
 * closing span always runs with is_final = true and owns the trailing
 * partial quality block — the same ownership rule as the parallel
 * analyzer, which is what makes the served result bit-identical to
 * emprof_analyze on the same capture for EVERY way the upload is cut
 * into Data frames.
 *
 * Peak memory per session is therefore
 *     halo + spanSamples + (one decoded EMCAP chunk)
 * samples, where one chunk is at most store::kMaxChunkSamples (the
 * stream decoder rejects a larger chunk header before sizing anything)
 * — independent of capture length, and the number the server
 * multiplies by its session limit to size its memory budget.
 *
 * The pipeline is single-threaded by design: the server guarantees at
 * most one in-flight call per session (feeds are serialised through
 * the session's task queue), so no locking is needed here.
 */

#ifndef EMPROF_SERVE_SESSION_PIPELINE_HPP
#define EMPROF_SERVE_SESSION_PIPELINE_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "profiler/profiler.hpp"
#include "profiler/stitch.hpp"
#include "serve/emcap_stream.hpp"

namespace emprof::serve {

class SessionPipeline
{
  public:
    /**
     * @param base Analysis config; sampleRateHz is overridden by the
     *        capture header once it arrives, and clockHz too when the
     *        header records one (> 0) and @p honourCaptureClock —
     *        mirroring emprof_analyze's defaults.
     * @param spanSamples Analysis span length; 0 picks
     *        max(kDefaultChunkSamples, minSpanSamples()).  Tests use
     *        tiny spans to force mid-upload analysis.
     */
    explicit SessionPipeline(const profiler::EmProfConfig &base,
                             std::size_t spanSamples = 0,
                             bool honourCaptureClock = true);

    /**
     * Ingest the next bytes of the capture upload.
     *
     * @retval false Malformed bytes or invalid capture metadata; the
     *         pipeline is poisoned and @p error says why.
     */
    bool feed(const uint8_t *data, std::size_t n, std::string *error);

    /**
     * End of upload: verify the capture arrived whole, analyse the
     * final span, and build the report.  Single-use.
     *
     * @retval false Truncated upload or poisoned pipeline.
     */
    bool finish(profiler::ProfileResult &out, std::string *error);

    /** Effective config; sample rate valid once headerReady(). */
    const profiler::EmProfConfig &config() const { return config_; }

    bool headerReady() const { return decoder_.headerReady(); }

    const EmcapStreamDecoder &decoder() const { return decoder_; }

    /**
     * Park support: drop the decoder's partially-received element and
     * return the element-aligned byte offset the upload must resume
     * from.  Decoded samples, stitcher carry and halo state are all
     * retained, so re-feeding the stream from this offset continues
     * the span chain bit-identically to an uninterrupted upload.
     */
    uint64_t
    rewindToResumable()
    {
        decoder_.rewindPartial();
        return decoder_.resumableOffset();
    }

    bool poisoned() const { return poisoned_; }

    bool resilient() const { return config_.signal.enabled; }

    /** Decoded-but-unanalysed samples currently buffered. */
    std::size_t bufferedSamples() const { return buffer_.size(); }

    /** Spans analysed before finish() (mid-upload progress). */
    uint64_t spansAnalyzed() const { return spansAnalyzed_; }

  private:
    bool poison(std::string *error, const std::string &message);
    bool onHeader(std::string *error);
    void analyzeSpan(uint64_t end, bool is_final);

    profiler::EmProfConfig config_;
    std::size_t spanSamples_;
    bool honourCaptureClock_;

    EmcapStreamDecoder decoder_;
    std::optional<profiler::ChunkStitcher> stitcher_;

    std::vector<dsp::Sample> buffer_; ///< [bufferBegin_, +size())
    uint64_t bufferBegin_ = 0;
    uint64_t nextBegin_ = 0; ///< first unanalysed global sample

    uint64_t spansAnalyzed_ = 0;
    bool finished_ = false;
    bool poisoned_ = false;
    std::string poisonReason_;
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_SESSION_PIPELINE_HPP
