#include "profiler/stitch.hpp"

#include <algorithm>

#include "common/huge_pages.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "profiler/report.hpp"
#include "profiler/signal_quality.hpp"

namespace emprof::profiler {

ChunkStitcher::ChunkStitcher(const EmProfConfig &config)
    : config_(config),
      // Same duration cut the chunk-local detectors used (the resilient
      // path relaxes it to compensate for pre-smoother dip widening).
      minDuration_(config.effectiveMinDurationSamples())
{}

void
ChunkStitcher::emitCarry()
{
    if (carry_.lastBelowExit - carry_.start + 1 < minDuration_)
        return;
    StallEvent ev;
    ev.startSample = carry_.start;
    ev.endSample = carry_.lastBelowExit;
    ev.depth = carry_.depthCount == 0
                   ? 0.0
                   : carry_.depthSum /
                         static_cast<double>(carry_.depthCount);
    classifyStall(ev, config_);
    pieces_.push_back(Piece{{ev}, 0});
}

std::size_t
ChunkStitcher::carryOver(const ChunkResult &chunk)
{
    uint64_t first_valid = chunk.begin;
    if (carry_.inDip) {
        ++carriedDips_;
        replayedSamples_ += chunk.prefixNorms.size();
        // Replay the prefix into the carried dip sample by sample, in
        // order, exactly as streaming would have accumulated it.
        for (std::size_t k = 0; k < chunk.prefixNorms.size(); ++k) {
            carry_.lastBelowExit = chunk.begin + k;
            carry_.depthSum += chunk.prefixNorms[k];
            ++carry_.depthCount;
        }
        if (chunk.prefixNorms.size() != chunk.end - chunk.begin) {
            emitCarry();
            carry_ = DipDetector::DipState{};
            // Chunk-local events inside the prefix belong to the
            // carried dip, not to a fresh one.
            first_valid = chunk.begin + chunk.prefixNorms.size();
        }
        // else: whole chunk below exit — the dip stays open and the
        // chunk can have produced neither events nor an open dip of
        // its own that starts outside the prefix.
    }
    if (config_.signal.enabled)
        blocks_.insert(blocks_.end(), chunk.blocks.begin(),
                       chunk.blocks.end());
    if (carry_.inDip)
        return chunk.events.size();
    if (chunk.open.inDip && chunk.open.start >= first_valid)
        carry_ = chunk.open;
    // Events are in start order, so those starting inside the replayed
    // prefix are a leading run.
    const auto kept = std::find_if(
        chunk.events.begin(), chunk.events.end(),
        [first_valid](const StallEvent &ev) {
            return ev.startSample >= first_valid;
        });
    return static_cast<std::size_t>(kept - chunk.events.begin());
}

void
ChunkStitcher::feed(const ChunkResult &chunk)
{
    const std::size_t skip = carryOver(chunk);
    if (skip == chunk.events.size())
        return;
    pieces_.push_back(Piece{
        {chunk.events.begin() + static_cast<std::ptrdiff_t>(skip),
         chunk.events.end()},
        0});
}

void
ChunkStitcher::feed(ChunkResult &&chunk)
{
    const std::size_t skip = carryOver(chunk);
    if (skip == chunk.events.size())
        return;
    pieces_.push_back(Piece{std::move(chunk.events), skip});
}

ProfileResult
ChunkStitcher::finalize(uint64_t totalSamples)
{
    EMPROF_OBS_STAGE("analyze.stitch_finalize");
    // Input ends mid-dip: same flush rule as DipDetector::finish().
    if (!finalized_ && carry_.inDip) {
        emitCarry();
        carry_ = DipDetector::DipState{};
    }
    finalized_ = true;

    // Splice the pieces into one vector sized up front, freeing each
    // as soon as it is copied; a lone piece is moved in whole.
    ProfileResult result;
    if (pieces_.size() == 1) {
        auto &events = pieces_.front().events;
        events.erase(events.begin(),
                     events.begin() +
                         static_cast<std::ptrdiff_t>(pieces_.front().skip));
        result.events = std::move(events);
    } else {
        std::size_t total = 0;
        for (const auto &piece : pieces_)
            total += piece.events.size() - piece.skip;
        result.events.reserve(total);
        common::adviseHugePages(result.events.data(),
                                total * sizeof(StallEvent));
        for (auto &piece : pieces_) {
            result.events.insert(
                result.events.end(),
                piece.events.begin() +
                    static_cast<std::ptrdiff_t>(piece.skip),
                piece.events.end());
            std::vector<StallEvent>().swap(piece.events);
        }
    }
    pieces_.clear();
    SignalQualitySummary quality;
    if (config_.signal.enabled)
        quality = applySignalQuality(result.events, blocks_,
                                     config_.detectorConfig(),
                                     config_.signal, totalSamples);
    result.report = makeReport(result.events, config_.sampleRateHz,
                               config_.clockHz, totalSamples);
    result.report.quality = quality;

    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter samples_processed =
            registry.counter("profiler.samples_processed");
        static const obs::Counter events_emitted =
            registry.counter("profiler.events_emitted");
        static const obs::Counter carried_dips =
            registry.counter("analyzer.stitch.carried_dips");
        static const obs::Counter replayed_samples =
            registry.counter("analyzer.stitch.replayed_samples");
        samples_processed.add(totalSamples);
        events_emitted.add(result.events.size());
        carried_dips.add(carriedDips_);
        replayed_samples.add(replayedSamples_);
    }
    return result;
}

} // namespace emprof::profiler
