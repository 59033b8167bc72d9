#include "store/capture_reader.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#include "store/chunk_codec.hpp"
#include "store/crc32c.hpp"

namespace emprof::store {

namespace {

void
countCrcFailure()
{
    if (!obs::MetricsRegistry::enabled())
        return;
    static const obs::Counter failures =
        obs::MetricsRegistry::instance().counter(
            "store.read.crc_failures");
    failures.inc();
}

} // namespace

bool
CaptureReader::preadAt(uint64_t offset, void *buf, std::size_t len,
                       const char *context, std::string *error) const
{
    common::io::IoError e;
    if (file_.preadAt(offset, buf, len, context, &e))
        return true;
    return fail(error, e.describe());
}

CaptureReader::~CaptureReader() { close(); }

void
CaptureReader::close()
{
    file_.reset();
    index_.clear();
    info_ = CaptureInfo{};
    fileSize_ = 0;
}

bool
CaptureReader::fail(std::string *error, const std::string &message) const
{
    if (error != nullptr)
        *error = message;
    return false;
}

bool
CaptureReader::openHeader(const std::string &path, uint64_t minBytes,
                          std::string *error)
{
    close();
    if (!file_.open(path, common::io::CheckedFile::Mode::Read))
        return fail(error, "cannot open " + path + ": " +
                               file_.error().describe());
    if (!file_.size(fileSize_, "stat"))
        return fail(error, "cannot stat " + path);
    if (fileSize_ < minBytes)
        return fail(error, "file too short to be an EMCAP capture");
    FileHeader header{};
    return preadAt(0, &header, sizeof(header), "file header", error) &&
           checkFileHeader(header, info_, error);
}

bool
CaptureReader::open(const std::string &path, std::string *error)
{
    std::string why;
    const auto bail = [&](const std::string &message) {
        close();
        return fail(error, message);
    };
    if (!openHeader(path, sizeof(FileHeader) + sizeof(FooterTail), &why))
        return bail(why);

    FooterTail tail{};
    if (!preadAt(fileSize_ - sizeof(tail), &tail, sizeof(tail),
                 "footer tail", &why))
        return bail(why);

    // Each chunk needs >= 20 bytes of body plus its 24-byte index
    // entry, which bounds the plausible chunk count before we allocate
    // (a torn file, whose "tail" is chunk bytes, usually stops here).
    const uint64_t non_chunk_bytes =
        sizeof(FileHeader) + sizeof(FooterTail);
    if (tail.chunkCount >
        (fileSize_ - non_chunk_bytes) /
            (sizeof(ChunkHeader) + sizeof(ChunkIndexEntry)))
        return bail("footer chunk count impossible for file size "
                    "(truncated? try recovery)");

    const uint64_t index_bytes =
        tail.chunkCount * sizeof(ChunkIndexEntry);
    const uint64_t footer_start =
        fileSize_ - sizeof(FooterTail) - index_bytes;

    index_.resize(static_cast<std::size_t>(tail.chunkCount));
    if (index_bytes != 0 &&
        !preadAt(footer_start, index_.data(), index_bytes,
                 "footer index", &why))
        return bail(why);

    if (!checkFooterTail(tail, crc32c(0, index_.data(), index_bytes),
                         info_.totalSamples, &why))
        return bail(why);

    // The chunk stream must tile [header, footer) exactly.
    uint64_t offset = sizeof(FileHeader);
    uint64_t samples = 0;
    for (const auto &entry : index_) {
        if (entry.fileOffset != offset ||
            entry.firstSample != samples ||
            entry.sampleCount == 0 ||
            entry.sampleCount > kMaxChunkSamples ||
            entry.storedBytes < sizeof(ChunkHeader))
            return bail("footer index inconsistent");
        offset += entry.storedBytes;
        samples += entry.sampleCount;
    }
    if (offset != footer_start || samples != tail.totalSamples)
        return bail("chunks do not tile the file");

    // Device names are user input: the JSON export escapes them, which
    // is exactly what the obs escaping tests pin down.
    obs::MetricsRegistry::instance().setLabel("store.device",
                                              info_.deviceName);
    return true;
}

bool
CaptureReader::openRecovered(const std::string &path,
                             RecoveryReport *report, std::string *error)
{
    EMPROF_OBS_STAGE("store.recover");
    // The 72-byte header is written first, before any chunk, and never
    // moves; without it there is no sample rate, codec or quantiser to
    // decode chunks with.
    std::string header_error;
    if (!openHeader(path, sizeof(FileHeader), &header_error)) {
        close();
        return fail(error, header_error + "; nothing recoverable");
    }

    // Walk the chunk stream from the front.  A chunk counts as
    // salvaged only if its full header + payload are present and the
    // CRC over both checks out; the first byte that fails ends the
    // salvageable prefix (it is a torn write, corruption, or the start
    // of a footer index).
    std::string stop_reason;
    std::vector<uint8_t> payload;
    uint64_t offset = sizeof(FileHeader);
    uint64_t samples = 0;
    while (offset < fileSize_) {
        if (fileSize_ - offset < sizeof(ChunkHeader)) {
            stop_reason = "truncated mid chunk header";
            break;
        }
        ChunkHeader chunk{};
        if (!preadAt(offset, &chunk, sizeof(chunk), "chunk header",
                     &stop_reason))
            break;
        if (!checkChunkHeader(chunk, &stop_reason)) {
            stop_reason += " (footer, torn write, or corruption)";
            break;
        }
        payload.resize(chunk.payloadBytes);
        if (!preadAt(offset + sizeof(ChunkHeader), payload.data(),
                     payload.size(), "chunk payload", &stop_reason))
            break;
        if (chunkCrc(chunk, payload.data()) != chunk.crc) {
            countCrcFailure();
            stop_reason = "chunk CRC mismatch (footer, torn write, or "
                          "corruption)";
            break;
        }

        ChunkIndexEntry entry{};
        entry.fileOffset = offset;
        entry.firstSample = samples;
        entry.sampleCount = chunk.sampleCount;
        entry.storedBytes = static_cast<uint32_t>(sizeof(ChunkHeader)) +
                            chunk.payloadBytes;
        index_.push_back(entry);
        samples += chunk.sampleCount;
        offset += entry.storedBytes;
    }

    // The header's own count is untrustworthy here (a crashed capture
    // still carries the provisional 0); the scan is the truth.
    info_.totalSamples = samples;

    if (report != nullptr) {
        *report = RecoveryReport{};
        report->salvagedChunks = index_.size();
        report->salvagedSamples = samples;
        report->salvagedBytes = offset;
        report->droppedTailBytes = fileSize_ - offset;
        report->stopReason = stop_reason;
    }
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter recoveries =
            registry.counter("store.recovery.opens");
        static const obs::Counter salvaged_chunks =
            registry.counter("store.recovery.salvaged_chunks");
        static const obs::Counter salvaged_samples =
            registry.counter("store.recovery.salvaged_samples");
        static const obs::Counter dropped_bytes =
            registry.counter("store.recovery.dropped_tail_bytes");
        recoveries.inc();
        salvaged_chunks.add(index_.size());
        salvaged_samples.add(samples);
        dropped_bytes.add(fileSize_ - offset);
    }
    return true;
}

std::size_t
CaptureReader::chunkContaining(uint64_t sample) const
{
    const auto it = std::upper_bound(
        index_.begin(), index_.end(), sample,
        [](uint64_t s, const ChunkIndexEntry &e) {
            return s < e.firstSample;
        });
    return it == index_.begin()
               ? 0
               : static_cast<std::size_t>(it - index_.begin() - 1);
}

bool
CaptureReader::decodeChunk(std::size_t i, std::vector<dsp::Sample> &out,
                           std::string *error) const
{
    if (!isOpen() || i >= index_.size())
        return fail(error, "chunk index out of range");
    out.resize(index_[i].sampleCount);
    std::vector<uint8_t> stored;
    return decodeChunk(i, out.data(), stored, error);
}

bool
CaptureReader::decodeChunk(std::size_t i, dsp::Sample *out,
                           std::vector<uint8_t> &stored,
                           std::string *error) const
{
    EMPROF_OBS_STAGE("store.decode_chunk");
    const ChunkIndexEntry &entry = index_[i];

    stored.resize(entry.storedBytes);
    if (!preadAt(entry.fileOffset, stored.data(), stored.size(),
                 "chunk body", error))
        return false;

    ChunkHeader header{};
    std::memcpy(&header, stored.data(), sizeof(header));
    const uint8_t *payload = stored.data() + sizeof(header);
    const std::size_t payload_bytes = stored.size() - sizeof(header);

    if (header.sampleCount != entry.sampleCount ||
        header.payloadBytes != payload_bytes)
        return fail(error, "chunk " + std::to_string(i) +
                               " header disagrees with footer index");
    if (chunkCrc(header, payload) != header.crc) {
        countCrcFailure();
        return fail(error,
                    "chunk " + std::to_string(i) + " CRC mismatch");
    }

    if (!store::decodeChunk(payload, payload_bytes,
                            static_cast<ChunkEncoding>(header.encoding),
                            info_.codec, header.scale, entry.sampleCount,
                            out))
        return fail(error, "chunk " + std::to_string(i) +
                               " payload malformed");
    if (obs::MetricsRegistry::enabled()) {
        auto &registry = obs::MetricsRegistry::instance();
        static const obs::Counter chunks =
            registry.counter("store.read.chunks_decoded");
        static const obs::Counter samples =
            registry.counter("store.read.samples");
        static const obs::Counter bytes =
            registry.counter("store.read.bytes");
        chunks.inc();
        samples.add(entry.sampleCount);
        bytes.add(entry.storedBytes);
    }
    return true;
}

bool
CaptureReader::readRange(uint64_t first, uint64_t count,
                         std::vector<dsp::Sample> &out,
                         std::string *error) const
{
    if (!isOpen())
        return fail(error, "reader not open");
    if (first + count < first || first + count > info_.totalSamples)
        return fail(error, "sample range exceeds capture");

    out.resize(static_cast<std::size_t>(count));
    if (count == 0)
        return true;

    // Chunks wholly inside the range decode straight into `out`; only
    // the partly covered ones at either end go through `scratch`.  One
    // stored-bytes buffer serves every chunk of the call.
    const uint64_t last = first + count;
    std::vector<uint8_t> stored;
    std::vector<dsp::Sample> scratch;
    uint64_t cursor = first;
    std::size_t ci = chunkContaining(first);
    while (cursor < last) {
        const ChunkIndexEntry &entry = index_[ci];
        const uint64_t entry_end = entry.firstSample + entry.sampleCount;
        dsp::Sample *dest = out.data() + (cursor - first);
        if (entry.firstSample >= first && entry_end <= last) {
            if (!decodeChunk(ci, dest, stored, error))
                return false;
            cursor = entry_end;
        } else {
            scratch.resize(entry.sampleCount);
            if (!decodeChunk(ci, scratch.data(), stored, error))
                return false;
            const uint64_t lo = cursor - entry.firstSample;
            const uint64_t hi = std::min(entry_end, last) - entry.firstSample;
            std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
                      scratch.begin() + static_cast<std::ptrdiff_t>(hi),
                      dest);
            cursor = entry.firstSample + hi;
        }
        ++ci;
    }
    return true;
}

bool
CaptureReader::readAll(dsp::TimeSeries &out, std::string *error) const
{
    out.sampleRateHz = info_.sampleRateHz;
    return readRange(0, info_.totalSamples, out.samples, error);
}

CaptureReader::VerifyResult
CaptureReader::verify() const
{
    VerifyResult result;
    if (!isOpen()) {
        result.error = "reader not open";
        return result;
    }

    // open() already vetted header + footer; walk every payload too.
    std::vector<dsp::Sample> scratch;
    for (std::size_t i = 0; i < index_.size(); ++i) {
        ++result.chunksChecked;
        if (!decodeChunk(i, scratch))
            result.badChunks.push_back(i);
    }
    result.ok = result.badChunks.empty();
    return result;
}

bool
CaptureReader::isEmcap(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char magic[4] = {};
    const bool ok =
        std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
        std::memcmp(magic, kEmcapMagic, sizeof(magic)) == 0;
    std::fclose(f);
    return ok;
}

} // namespace emprof::store
