#include "store/emcap_format.hpp"

#include <cstddef>
#include <cstring>

#include "store/crc32c.hpp"

namespace emprof::store {

namespace {

bool
fail(std::string *error, const char *message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

uint32_t
fileHeaderCrc(const FileHeader &header)
{
    return crc32c(0, &header, offsetof(FileHeader, headerCrc));
}

uint32_t
chunkCrc(const ChunkHeader &header, const uint8_t *payload)
{
    return crc32c(crc32c(0, &header, offsetof(ChunkHeader, crc)),
                  payload, header.payloadBytes);
}

uint32_t
footerCrc(uint32_t indexCrc, const FooterTail &tail)
{
    return crc32c(indexCrc, &tail, offsetof(FooterTail, footerCrc));
}

bool
checkFileHeader(const FileHeader &header, CaptureInfo &info,
                std::string *error)
{
    if (std::memcmp(header.magic, kEmcapMagic, sizeof(kEmcapMagic)) != 0)
        return fail(error, "bad magic: not an EMCAP capture");
    if (header.version != kEmcapVersion)
        return fail(error, "unsupported EMCAP version");
    if (fileHeaderCrc(header) != header.headerCrc)
        return fail(error, "file header CRC mismatch");
    if (header.codec != static_cast<uint32_t>(SampleCodec::F32) &&
        header.codec != static_cast<uint32_t>(SampleCodec::QuantI16))
        return fail(error, "unknown sample codec");

    info.version = header.version;
    info.codec = static_cast<SampleCodec>(header.codec);
    info.quantBits = header.quantBits;
    info.sampleRateHz = header.sampleRateHz;
    info.clockHz = header.clockHz;
    info.deviceName.assign(
        header.deviceName,
        ::strnlen(header.deviceName, sizeof(header.deviceName)));
    info.totalSamples = header.totalSamples;
    return true;
}

bool
checkChunkHeader(const ChunkHeader &header, std::string *error)
{
    if (header.sampleCount == 0)
        return fail(error, "chunk declares zero samples");
    if (header.sampleCount > kMaxChunkSamples)
        return fail(error, "chunk declares more than kMaxChunkSamples");
    if (header.payloadBytes > uint64_t{header.sampleCount} * 8 + 64)
        return fail(error, "chunk payload implausible for its samples");
    return true;
}

bool
checkFooterTail(const FooterTail &tail, uint32_t indexCrc,
                uint64_t totalSamples, std::string *error)
{
    if (std::memcmp(tail.magic, kFooterMagic, sizeof(kFooterMagic)) != 0)
        return fail(error, "bad footer magic (truncated? try recovery)");
    if (footerCrc(indexCrc, tail) != tail.footerCrc)
        return fail(error, "footer CRC mismatch");
    if (tail.totalSamples != totalSamples)
        return fail(error, "header/footer sample counts disagree");
    return true;
}

} // namespace emprof::store
