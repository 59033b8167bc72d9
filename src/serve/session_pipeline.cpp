#include "serve/session_pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "profiler/batch_pipeline.hpp"
#include "store/emcap_format.hpp"

namespace emprof::serve {

SessionPipeline::SessionPipeline(const profiler::EmProfConfig &base,
                                 std::size_t spanSamples,
                                 bool honourCaptureClock)
    : config_(base), spanSamples_(spanSamples),
      honourCaptureClock_(honourCaptureClock)
{
}

bool
SessionPipeline::poison(std::string *error, const std::string &message)
{
    poisoned_ = true;
    poisonReason_ = message;
    buffer_.clear();
    buffer_.shrink_to_fit();
    if (error != nullptr)
        *error = message;
    return false;
}

bool
SessionPipeline::onHeader(std::string *error)
{
    const store::CaptureInfo &info = decoder_.info();
    config_.sampleRateHz = info.sampleRateHz;
    if (honourCaptureClock_ && info.clockHz > 0.0)
        config_.clockHz = info.clockHz;
    std::string why;
    if (!config_.validate(&why))
        return poison(error, "capture metadata yields an invalid "
                             "analysis config: " +
                                 why);
    if (spanSamples_ == 0)
        spanSamples_ = std::max(store::kDefaultChunkSamples,
                                config_.minSpanSamples());
    stitcher_.emplace(config_);
    return true;
}

void
SessionPipeline::analyzeSpan(uint64_t end, bool is_final)
{
    static const auto span_hist =
        obs::MetricsRegistry::instance().histogram(
            "emprof.serve.stage.analyze_span_us");
    const auto t0 = std::chrono::steady_clock::now();

    const profiler::ChunkResult chunk = profiler::analyzeChunkAuto(
        buffer_.data(), bufferBegin_, nextBegin_, end, is_final,
        config_);
    stitcher_->feed(chunk);
    ++spansAnalyzed_;
    nextBegin_ = end;

    // Trim the buffer back to the halo the next span will re-feed.
    const uint64_t halo =
        std::min<uint64_t>(end, config_.haloSamples());
    const uint64_t keep_from = end - halo;
    if (keep_from > bufferBegin_) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(keep_from -
                                                      bufferBegin_));
        bufferBegin_ = keep_from;
    }

    if (obs::MetricsRegistry::enabled())
        span_hist.observe(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
}

bool
SessionPipeline::feed(const uint8_t *data, std::size_t n,
                      std::string *error)
{
    if (poisoned_)
        return poison(error, poisonReason_);
    if (finished_)
        return poison(error, "feed() after finish()");

    const bool had_header = decoder_.headerReady();
    if (!decoder_.feed(data, n, buffer_, error))
        return poison(error, error != nullptr ? *error
                                              : "malformed stream");
    if (!had_header && decoder_.headerReady() && !onHeader(error))
        return false;

    // Analyse every full span, but always hold back at least one
    // sample so the closing span can carry is_final (see file doc).
    while (bufferBegin_ + buffer_.size() - nextBegin_ > spanSamples_)
        analyzeSpan(nextBegin_ + spanSamples_, /*is_final=*/false);
    return true;
}

bool
SessionPipeline::finish(profiler::ProfileResult &out, std::string *error)
{
    if (poisoned_)
        return poison(error, poisonReason_);
    if (finished_)
        return poison(error, "finish() called twice");
    finished_ = true;

    if (!decoder_.complete(error)) {
        poisoned_ = true;
        poisonReason_ = error != nullptr ? *error : "incomplete upload";
        return false;
    }

    // complete() implies every declared sample was decoded, and the
    // strict > in feed() left at least one of them unanalysed.
    const uint64_t total = decoder_.info().totalSamples;
    analyzeSpan(total, /*is_final=*/true);
    out = stitcher_->finalize(total);

    buffer_.clear();
    buffer_.shrink_to_fit();
    return true;
}

} // namespace emprof::serve
