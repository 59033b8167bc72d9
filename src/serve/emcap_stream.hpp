/**
 * @file
 * Incremental EMCAP decoding for the ingest service.
 *
 * CaptureReader needs the whole file on disk (it opens the footer
 * index first); a served upload arrives as a byte stream with no
 * ability to seek.  EmcapStreamDecoder consumes that stream in
 * whatever slices the network delivers and emits decoded samples as
 * soon as each chunk's bytes are complete:
 *
 *     FileHeader → [ChunkHeader + payload]* → index entry* → tail
 *
 * The on-disk reader's checks are applied on the fly by calling them,
 * not by repeating them: checkFileHeader, checkChunkHeader, chunkCrc
 * and checkFooterTail from store/emcap_format.hpp.  A corrupted or
 * hostile upload thus yields a typed error at the first bad byte,
 * never undefined behaviour, and never more than one chunk of at most
 * kMaxChunkSamples samples buffered (bounded memory per session).
 *
 * The header's totalSamples field tells the decoder where the chunk
 * region ends (the writer back-patches it on finalize, so any capture
 * a client can legitimately push has it).  Then come one 24-byte index
 * entry per chunk, CRC'd as they pass, and the tail, which must carry
 * the chunk count and a matching footer CRC; any byte after it is an
 * error.  An upload cut short anywhere (mid-chunk, mid-footer, before
 * the footer) fails complete() with a reason, matching
 * emprof_analyze's refusal to analyse a truncated capture without
 * --recover.
 */

#ifndef EMPROF_SERVE_EMCAP_STREAM_HPP
#define EMPROF_SERVE_EMCAP_STREAM_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dsp/types.hpp"
#include "store/emcap_format.hpp"

namespace emprof::serve {

class EmcapStreamDecoder
{
  public:
    /**
     * Consume @p n bytes of the capture stream; newly decoded samples
     * are appended to @p out (possibly none, possibly several chunks'
     * worth).
     *
     * @retval false Malformed stream (@p error says why).  The decoder
     *         is then poisoned: every further feed() fails the same
     *         way.
     */
    bool feed(const uint8_t *data, std::size_t n,
              std::vector<dsp::Sample> &out,
              std::string *error = nullptr);

    /** True once the 72-byte file header has been validated (and so
     *  declares at least one sample). */
    bool headerReady() const { return info_.totalSamples != 0; }

    /** Capture metadata; valid once headerReady(). */
    const store::CaptureInfo &info() const { return info_; }

    uint64_t bytesConsumed() const { return bytesConsumed_; }

    /**
     * The highest element-aligned byte offset that is durably part of
     * the decode: everything before the element (file header, chunk,
     * index entry or footer tail) currently in flight.  This is the
     * offset the resume handshake echoes — a reconnecting client
     * re-sends from here and the decode continues as if never
     * interrupted.
     */
    uint64_t resumableOffset() const
    {
        return bytesConsumed_ - pending_.size();
    }

    /**
     * Drop the partially-received element so the stream can be re-fed
     * from resumableOffset().  The state machine stays where it is:
     * the element is simply accumulated again from its first byte
     * (for a chunk-payload element that includes its already-parsed
     * header, whose re-sent bytes are covered by the chunk CRC — a
     * client that resumes with different bytes is caught, not
     * silently accepted).  No-op when nothing is in flight.
     */
    void rewindPartial()
    {
        bytesConsumed_ -= pending_.size();
        pending_.clear();
    }

    /**
     * End-of-upload check: all declared samples decoded and a
     * complete, CRC-checked footer seen.
     *
     * @retval false The upload was truncated or never got past the
     *         header; @p error names the missing piece.
     */
    bool complete(std::string *error = nullptr) const;

  private:
    enum class State
    {
        FileHeader,
        ChunkHeader,
        ChunkPayload,
        Footer,
        Done,
        Poisoned,
    };

    bool poison(std::string *error, const std::string &message);

    State state_ = State::FileHeader;
    std::string poisonReason_;
    std::vector<uint8_t> pending_; ///< bytes of the current element
    std::size_t need_ = sizeof(store::FileHeader);

    store::CaptureInfo info_;
    store::ChunkHeader chunkHeader_{};

    uint64_t samplesDecoded_ = 0;
    uint64_t chunksDecoded_ = 0;
    uint64_t bytesConsumed_ = 0;
    uint64_t indexEntries_ = 0;
    uint32_t indexCrc_ = 0; ///< crc32c of the footer index so far
};

} // namespace emprof::serve

#endif // EMPROF_SERVE_EMCAP_STREAM_HPP
