#include "serve/emcap_stream.hpp"

#include <cstring>

#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

namespace emprof::serve {

bool
EmcapStreamDecoder::poison(std::string *error, const std::string &message)
{
    state_ = State::Poisoned;
    poisonReason_ = message;
    pending_.clear();
    pending_.shrink_to_fit();
    if (error != nullptr)
        *error = message;
    return false;
}

bool
EmcapStreamDecoder::feed(const uint8_t *data, std::size_t n,
                         std::vector<dsp::Sample> &out,
                         std::string *error)
{
    if (state_ == State::Poisoned)
        return poison(error, poisonReason_);

    while (n > 0) {
        if (state_ == State::Done)
            return poison(error, "bytes after the EMCAP footer");
        const std::size_t take = std::min(n, need_ - pending_.size());
        pending_.insert(pending_.end(), data, data + take);
        data += take;
        n -= take;
        bytesConsumed_ += take;
        if (pending_.size() < need_)
            return true; // mid-element; wait for more bytes

        std::string why;
        switch (state_) {
        case State::FileHeader: {
            store::FileHeader header{};
            std::memcpy(&header, pending_.data(), sizeof(header));
            if (!store::checkFileHeader(header, info_, &why))
                return poison(error, why);
            if (info_.totalSamples == 0)
                return poison(error, "capture declares zero samples "
                                     "(unfinalized or empty upload)");
            state_ = State::ChunkHeader;
            break;
        }
        case State::ChunkHeader:
            std::memcpy(&chunkHeader_, pending_.data(),
                        sizeof(chunkHeader_));
            if (!store::checkChunkHeader(chunkHeader_, &why))
                return poison(error, why);
            if (chunkHeader_.sampleCount >
                info_.totalSamples - samplesDecoded_)
                return poison(error, "chunk stream overruns the "
                                     "declared sample count");
            need_ = sizeof(store::ChunkHeader) +
                    chunkHeader_.payloadBytes;
            state_ = State::ChunkPayload;
            break;
        case State::ChunkPayload: {
            // pending_ holds the chunk header, then its payload.
            const uint8_t *payload =
                pending_.data() + sizeof(store::ChunkHeader);
            if (store::chunkCrc(chunkHeader_, payload) != chunkHeader_.crc)
                return poison(error, "chunk " +
                                         std::to_string(chunksDecoded_) +
                                         " CRC mismatch");
            const std::size_t base = out.size();
            out.resize(base + chunkHeader_.sampleCount);
            if (!store::decodeChunk(
                    payload, chunkHeader_.payloadBytes,
                    static_cast<store::ChunkEncoding>(
                        chunkHeader_.encoding),
                    info_.codec, chunkHeader_.scale,
                    chunkHeader_.sampleCount, out.data() + base)) {
                out.resize(base);
                return poison(error, "chunk " +
                                         std::to_string(chunksDecoded_) +
                                         " payload is malformed");
            }
            samplesDecoded_ += chunkHeader_.sampleCount;
            ++chunksDecoded_;
            state_ = samplesDecoded_ == info_.totalSamples
                         ? State::Footer
                         : State::ChunkHeader;
            break;
        }
        case State::Footer: {
            // One index entry per chunk, CRC'd as it passes, then the
            // tail; each is 24 bytes.
            if (indexEntries_++ < chunksDecoded_) {
                indexCrc_ = store::crc32c(indexCrc_, pending_.data(),
                                          pending_.size());
                break;
            }
            store::FooterTail tail{};
            std::memcpy(&tail, pending_.data(), sizeof(tail));
            if (!store::checkFooterTail(tail, indexCrc_,
                                        info_.totalSamples, &why))
                return poison(error, why);
            if (tail.chunkCount != chunksDecoded_)
                return poison(error, "footer chunk count disagrees with "
                                     "the chunks received");
            state_ = State::Done;
            break;
        }
        case State::Done:
        case State::Poisoned:
            break; // unreachable: handled above
        }
        if (state_ != State::ChunkPayload) {
            pending_.clear();
            need_ = state_ == State::ChunkHeader ? sizeof(store::ChunkHeader)
                                                 : sizeof(store::FooterTail);
        }
    }
    return true;
}

bool
EmcapStreamDecoder::complete(std::string *error) const
{
    const auto fail = [error](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return false;
    };
    if (state_ == State::Poisoned)
        return fail(poisonReason_);
    if (!headerReady())
        return fail("upload ended before the EMCAP header");
    if (samplesDecoded_ < info_.totalSamples)
        return fail("upload truncated: " +
                    std::to_string(samplesDecoded_) + " of " +
                    std::to_string(info_.totalSamples) +
                    " samples received");
    if (state_ != State::Done)
        return fail("upload truncated mid-footer");
    return true;
}

} // namespace emprof::serve
