/**
 * @file
 * EMCAP on-disk format: the byte layout of a capture container.
 *
 * EMPROF captures are minutes of multi-MHz sampling; the legacy
 * formats (headerless raw f32, the 32-byte .emsig header) force the
 * analyzer to slurp an opaque blob serially with no integrity check.
 * EMCAP is a self-describing stream of independently-decodable chunks:
 *
 *     | FileHeader | chunk 0 | chunk 1 | ... | footer index | tail |
 *
 * Each chunk is a small header plus an encoded payload and carries its
 * own CRC32C, so a flipped bit is pinned to one chunk and the rest of
 * the capture survives.  The footer index (offset + first-sample per
 * chunk) enables O(1) seek to any sample range and lets a thread pool
 * decode chunks concurrently.  See DESIGN.md §9 for byte diagrams.
 *
 * All multi-byte fields are little-endian; the structs below are the
 * format (as with .emsig, asserted by static_assert on their sizes).
 * The functions at the end are its integrity rules, written once: the
 * writer, CaptureReader and the served EmcapStreamDecoder all use them.
 */

#ifndef EMPROF_STORE_EMCAP_FORMAT_HPP
#define EMPROF_STORE_EMCAP_FORMAT_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace emprof::store {

/** File magic, first four bytes of every EMCAP file. */
constexpr char kEmcapMagic[4] = {'E', 'M', 'C', 'P'};

/** Footer magic, last four bytes of every EMCAP file. */
constexpr char kFooterMagic[4] = {'E', 'M', 'C', 'F'};

constexpr uint32_t kEmcapVersion = 1;

/** How samples are represented before chunk encoding. */
enum class SampleCodec : uint32_t
{
    F32 = 1,      ///< lossless: the float bit patterns themselves
    QuantI16 = 2, ///< quantised to <= 16-bit ints, per-chunk scale
};

/** How one chunk's integer stream is laid out on disk. */
enum class ChunkEncoding : uint32_t
{
    Raw = 0,         ///< verbatim i16/f32 little-endian array
    DeltaPacked = 1, ///< delta + zig-zag + per-miniblock bit packing
};

/**
 * Fixed 72-byte file header.  headerCrc is CRC32C over the preceding
 * 68 bytes; totalSamples is back-patched when the writer finalises
 * (the footer tail carries the authoritative copy too, and the two
 * must agree).
 */
struct FileHeader
{
    char magic[4];        ///< kEmcapMagic
    uint32_t version;     ///< kEmcapVersion
    uint32_t codec;       ///< SampleCodec
    uint32_t quantBits;   ///< quantiser bits (0 for F32)
    double sampleRateHz;  ///< magnitude sample rate
    double clockHz;       ///< target processor clock (0 = unknown)
    uint64_t totalSamples;
    char deviceName[24];  ///< NUL-padded capture source name
    uint32_t reserved;    ///< zero
    uint32_t headerCrc;
};
static_assert(sizeof(FileHeader) == 72, "header layout is the format");

/**
 * 20-byte per-chunk header, immediately followed by payloadBytes of
 * encoded samples.  crc is CRC32C over the first 16 header bytes and
 * then the payload, so any flipped bit in either is detected.
 */
struct ChunkHeader
{
    uint32_t encoding;    ///< ChunkEncoding
    uint32_t sampleCount; ///< samples decoded from this chunk
    uint32_t payloadBytes;
    float scale;          ///< i16 dequantisation step (1.0 for F32)
    uint32_t crc;
};
static_assert(sizeof(ChunkHeader) == 20, "chunk layout is the format");

/** 24-byte footer index entry, one per chunk, in file order. */
struct ChunkIndexEntry
{
    uint64_t fileOffset;  ///< offset of the ChunkHeader
    uint64_t firstSample; ///< global index of the chunk's first sample
    uint32_t sampleCount;
    uint32_t storedBytes; ///< sizeof(ChunkHeader) + payloadBytes
};
static_assert(sizeof(ChunkIndexEntry) == 24, "index layout is the format");

/**
 * Fixed 24-byte tail, last bytes of the file.  The index entries sit
 * directly before it; footerCrc is CRC32C over those entries plus the
 * tail's first 16 bytes (chunkCount, totalSamples).
 */
struct FooterTail
{
    uint64_t chunkCount;
    uint64_t totalSamples;
    uint32_t footerCrc;
    char magic[4]; ///< kFooterMagic
};
static_assert(sizeof(FooterTail) == 24, "footer layout is the format");

/** Samples per chunk when the writer is not told otherwise. */
constexpr std::size_t kDefaultChunkSamples = std::size_t{1} << 16;

/** Most samples one chunk may declare (16x the default, 4 MiB of f32):
 *  what bounds the sample buffer a reader sizes from a chunk header. */
constexpr std::size_t kMaxChunkSamples = std::size_t{1} << 20;

/** Decoded file-header metadata. */
struct CaptureInfo
{
    uint32_t version = 0;
    SampleCodec codec = SampleCodec::F32;
    unsigned quantBits = 0;
    double sampleRateHz = 0.0;
    double clockHz = 0.0;
    std::string deviceName;
    uint64_t totalSamples = 0;
};

/** CRC32C over the header's first 68 bytes (all but headerCrc). */
uint32_t fileHeaderCrc(const FileHeader &header);

/** CRC32C over the chunk header's first 16 bytes, then its payload. */
uint32_t chunkCrc(const ChunkHeader &header, const uint8_t *payload);

/** CRC32C over the index entries (@p indexCrc: crc32c of them alone),
 *  then the tail's first 16 bytes. */
uint32_t footerCrc(uint32_t indexCrc, const FooterTail &tail);

/**
 * Magic, version, header CRC and codec, then fill @p info (totalSamples
 * as stored: what a 0 means is the caller's rule).  Like each check
 * below, on false it names the broken rule in @p error, if non-null.
 */
bool checkFileHeader(const FileHeader &header, CaptureInfo &info,
                     std::string *error);

/** 1..kMaxChunkSamples samples and at most 8 payload bytes per sample
 *  + 64 (twice raw f32 plus slack; the encoder never writes more than
 *  raw), checked before any buffer is sized from the header.  The CRC
 *  needs the payload, so chunkCrc() comes after. */
bool checkChunkHeader(const ChunkHeader &header, std::string *error);

/** Magic, footerCrc(@p indexCrc, tail) and the header's sample count. */
bool checkFooterTail(const FooterTail &tail, uint32_t indexCrc,
                     uint64_t totalSamples, std::string *error);

} // namespace emprof::store

#endif // EMPROF_STORE_EMCAP_FORMAT_HPP
