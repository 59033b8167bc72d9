#include "store/capture_writer.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "store/crc32c.hpp"

namespace emprof::store {

namespace {

FileHeader
makeHeader(const WriterOptions &options, uint64_t total_samples)
{
    FileHeader header{};
    std::memcpy(header.magic, kEmcapMagic, sizeof(kEmcapMagic));
    header.version = kEmcapVersion;
    header.codec = static_cast<uint32_t>(options.codec);
    header.quantBits =
        options.codec == SampleCodec::QuantI16 ? options.quantBits : 0;
    header.sampleRateHz = options.sampleRateHz;
    header.clockHz = options.clockHz;
    header.totalSamples = total_samples;
    std::strncpy(header.deviceName, options.deviceName.c_str(),
                 sizeof(header.deviceName) - 1);
    header.headerCrc = fileHeaderCrc(header);
    return header;
}

} // namespace

bool
CaptureWriter::failWithFileError()
{
    failed_ = true;
    if (error_.ok())
        error_ = file_.error();
    return false;
}

bool
CaptureWriter::open(const std::string &path, const WriterOptions &options)
{
    if (file_.isOpen())
        return false;
    failed_ = false;
    error_ = common::io::IoError{};
    if (options.chunkSamples == 0 ||
        options.chunkSamples > kMaxChunkSamples ||
        (options.codec == SampleCodec::QuantI16 &&
         (options.quantBits < 2 || options.quantBits > 16)) ||
        (options.codec != SampleCodec::F32 &&
         options.codec != SampleCodec::QuantI16)) {
        error_ = common::io::formatError(path, "unusable writer options");
        return false;
    }

    if (!file_.open(path,
                    common::io::CheckedFile::Mode::ReadWriteTruncate)) {
        error_ = file_.error();
        return false;
    }

    options_ = options;
    buffer_.clear();
    buffer_.reserve(options.chunkSamples);
    index_.clear();
    stats_ = WriterStats{};

    // Provisional header; finalize() rewrites it with the true sample
    // count (and therefore the true CRC).
    const FileHeader header = makeHeader(options_, 0);
    if (!file_.writeAll(&header, sizeof(header), "file header")) {
        error_ = file_.error();
        file_.close();
        return false;
    }
    return true;
}

bool
CaptureWriter::append(const dsp::Sample *samples, std::size_t count)
{
    if (!isOpen())
        return false;
    while (count > 0) {
        const std::size_t take = std::min(
            count, options_.chunkSamples - buffer_.size());
        buffer_.insert(buffer_.end(), samples, samples + take);
        samples += take;
        count -= take;
        if (buffer_.size() == options_.chunkSamples && !flushChunk())
            return false;
    }
    return true;
}

bool
CaptureWriter::flushChunk()
{
    if (buffer_.empty())
        return true;
    EMPROF_OBS_STAGE("store.encode_chunk");

    EncoderOptions enc;
    enc.codec = options_.codec;
    enc.quantBits = options_.quantBits;
    enc.compress = options_.compress;
    const EncodedChunk chunk =
        encodeChunk(buffer_.data(), buffer_.size(), enc);

    ChunkHeader header{};
    header.encoding = static_cast<uint32_t>(chunk.encoding);
    header.sampleCount = static_cast<uint32_t>(buffer_.size());
    header.payloadBytes = static_cast<uint32_t>(chunk.payload.size());
    header.scale = chunk.scale;
    header.crc = chunkCrc(header, chunk.payload.data());

    // The index entry records where the chunk actually starts; taking
    // the offset from the checked file (rather than a parallel counter)
    // makes a header-landed/payload-failed desync impossible — after
    // any failed write the writer is invalid and nothing more lands.
    ChunkIndexEntry entry{};
    entry.fileOffset = file_.offset();
    entry.firstSample = stats_.samples;
    entry.sampleCount = header.sampleCount;
    entry.storedBytes = static_cast<uint32_t>(sizeof(ChunkHeader) +
                                              chunk.payload.size());

    if (!file_.writeAll(&header, sizeof(header), "chunk header"))
        return failWithFileError();
    if (!chunk.payload.empty() &&
        !file_.writeAll(chunk.payload.data(), chunk.payload.size(),
                        "chunk payload"))
        return failWithFileError();

    index_.push_back(entry);
    stats_.samples += buffer_.size();
    ++stats_.chunks;
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter chunks =
            registry.counter("store.write.chunks_encoded");
        static const obs::Counter samples =
            registry.counter("store.write.samples");
        static const obs::Counter bytes =
            registry.counter("store.write.bytes");
        chunks.inc();
        samples.add(buffer_.size());
        bytes.add(entry.storedBytes);
    }
    buffer_.clear();
    return true;
}

bool
CaptureWriter::finalize()
{
    EMPROF_OBS_STAGE("store.finalize");
    if (!file_.isOpen())
        return false;
    if (failed_ || !flushChunk()) {
        file_.close();
        return false;
    }

    FooterTail tail{};
    tail.chunkCount = index_.size();
    tail.totalSamples = stats_.samples;
    tail.footerCrc = footerCrc(
        crc32c(0, index_.data(), index_.size() * sizeof(ChunkIndexEntry)),
        tail);
    std::memcpy(tail.magic, kFooterMagic, sizeof(kFooterMagic));

    const FileHeader header = makeHeader(options_, stats_.samples);

    bool ok =
        (index_.empty() ||
         file_.writeAll(index_.data(),
                        index_.size() * sizeof(ChunkIndexEntry),
                        "footer index")) &&
        file_.writeAll(&tail, sizeof(tail), "footer tail");
    if (ok)
        stats_.fileBytes = file_.offset();
    ok = ok && file_.seekTo(0, "header back-patch") &&
         file_.writeAll(&header, sizeof(header), "header back-patch") &&
         file_.syncToDisk("finalize fsync");

    // close() reports both a pending error and a failing close(2);
    // order matters so a clean close cannot mask a failed write.
    ok = file_.close() && ok;
    if (!ok)
        return failWithFileError();
    return true;
}

bool
writeCapture(const std::string &path, const dsp::TimeSeries &series,
             WriterOptions options, WriterStats *stats,
             std::string *error)
{
    if (options.sampleRateHz <= 0.0)
        options.sampleRateHz = series.sampleRateHz;
    CaptureWriter writer;
    const bool ok = writer.open(path, options) &&
                    writer.append(series) && writer.finalize();
    if (stats != nullptr)
        *stats = writer.stats();
    if (!ok && error != nullptr)
        *error = writer.lastError().describe();
    return ok;
}

} // namespace emprof::store
