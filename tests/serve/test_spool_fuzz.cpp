/**
 * @file
 * Seeded mutation fuzz of ResultSpool segment recovery, in the style of
 * test_serve_fuzz.cpp.
 *
 * A reference spool of several segments (results of assorted sizes,
 * some acked) is copied and one segment is mutated per round: byte
 * flips, a truncation, a splice from another segment, or an inflated
 * payload length (with the record CRC sometimes fixed up, so the
 * record swallows what follows it and still verifies).  A reference
 * scan written here from the record format alone gives each segment's
 * longest valid prefix.  Then:
 *  - open() succeeds and indexes exactly what the reference scan
 *    accepts, acks included, and counts one torn tail per segment
 *    that stopped early;
 *  - every fetch() returns the bytes and status of a record whose CRC
 *    verifies, or fails with a typed message — also after the files
 *    are damaged again at rest, including a record swapped for
 *    another session's record of the same size;
 *  - an append after recovery goes to a new segment and leaves every
 *    recovered segment byte-identical, so a torn tail is never
 *    extended.
 * The ASan/UBSan CI job runs this file.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capture_bytes.hpp"
#include "dsp/rng.hpp"
#include "scratch_dir.hpp"
#include "serve/spool.hpp"
#include "store/crc32c.hpp"

using namespace emprof;
using namespace emprof::serve;

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kHeader = sizeof(SpoolRecordHeader);

struct Record
{
    uint32_t kind = 0;
    SessionId id{};
    uint32_t status = 0;
    std::vector<uint8_t> payload;
};

uint32_t
recordCrc(SpoolRecordHeader header, const uint8_t *payload)
{
    header.crc = 0;
    const uint32_t crc = store::crc32c(0, &header, sizeof(header));
    return store::crc32c(crc, payload, header.payloadBytes);
}

/** The whole records of @p bytes up to the first one that is short,
 *  malformed or fails its CRC; @p offsets gets each record's start. */
std::vector<Record>
referenceScan(const std::vector<uint8_t> &bytes, bool &torn,
              std::vector<std::size_t> *offsets = nullptr)
{
    std::vector<Record> records;
    std::size_t at = 0;
    torn = false;
    while (at < bytes.size()) {
        SpoolRecordHeader h;
        if (bytes.size() - at < kHeader) {
            torn = true;
            break;
        }
        std::memcpy(&h, bytes.data() + at, kHeader);
        const uint8_t *payload = bytes.data() + at + kHeader;
        if (std::memcmp(h.magic, kSpoolMagic, sizeof(h.magic)) != 0 ||
            h.version != kSpoolVersion ||
            (h.kind != static_cast<uint32_t>(SpoolRecordKind::Result) &&
             h.kind != static_cast<uint32_t>(SpoolRecordKind::Ack)) ||
            h.payloadBytes > bytes.size() - at - kHeader ||
            recordCrc(h, payload) != h.crc) {
            torn = true;
            break;
        }
        Record r;
        r.kind = h.kind;
        std::memcpy(r.id.data(), h.sessionId, r.id.size());
        r.status = h.status;
        r.payload.assign(payload, payload + h.payloadBytes);
        records.push_back(std::move(r));
        if (offsets != nullptr)
            offsets->push_back(at);
        at += kHeader + h.payloadBytes;
    }
    return records;
}

/** What a spool indexes from its segments' valid records, in order. */
struct Expected
{
    struct Entry
    {
        uint32_t status = 0;
        std::vector<uint8_t> payload;
        bool acked = false;
        uint64_t order = 0;
    };
    std::map<std::string, Entry> byId;
    uint64_t results = 0;
    uint64_t torn = 0;
};

Expected
expectedIndex(const std::vector<std::vector<uint8_t>> &segments)
{
    Expected ex;
    uint64_t order = 0;
    for (const auto &segment : segments) {
        bool torn = false;
        for (const auto &r : referenceScan(segment, torn)) {
            const std::string hex = sessionIdToHex(r.id);
            if (r.kind == static_cast<uint32_t>(SpoolRecordKind::Result)) {
                ex.byId[hex] = {r.status, r.payload, false, order++};
                ++ex.results;
            } else if (auto it = ex.byId.find(hex); it != ex.byId.end()) {
                it->second.acked = true;
            }
        }
        ex.torn += torn ? 1 : 0;
    }
    return ex;
}

SessionId
makeId(uint32_t n)
{
    SessionId id{};
    for (std::size_t i = 0; i < id.size(); ++i)
        id[i] = static_cast<uint8_t>(n * 37 + i * 11 + 1);
    return id;
}

std::string
segmentPath(const std::string &dir, std::size_t seq)
{
    return dir + "/spool-" + std::to_string(seq) + ".emspool";
}

/** The reference spool: results of assorted sizes (several of equal
 *  size, so records can be swapped), every third one acked, spread over
 *  several segments.  Returns each segment's bytes. */
std::vector<std::vector<uint8_t>>
referenceSegments(const std::string &dir)
{
    const std::size_t sizes[] = {0, 40, 40, 200, 40, 7, 40, 1000, 3, 40, 64, 40};
    ResultSpool spool;
    ResultSpool::Options options;
    options.dir = dir;
    options.segmentBytes = 700;
    std::string error;
    EXPECT_TRUE(spool.open(options, &error)) << error;
    dsp::Rng rng(3);
    for (uint32_t n = 0; n < std::size(sizes); ++n) {
        std::vector<uint8_t> payload(sizes[n]);
        for (auto &b : payload)
            b = static_cast<uint8_t>(rng());
        EXPECT_TRUE(spool.append(makeId(n), n % 4 == 3 ? 3 : 0, payload,
                                 &error))
            << error;
        if (n % 3 == 2) {
            EXPECT_TRUE(spool.ack(makeId(n - 1), &error)) << error;
        }
    }
    spool.close();
    std::vector<std::vector<uint8_t>> segments;
    for (std::size_t seq = 0; fs::exists(segmentPath(dir, seq)); ++seq)
        segments.push_back(test::readFileBytes(segmentPath(dir, seq)));
    return segments;
}

uint32_t
hostileLength(dsp::Rng &rng, std::size_t left)
{
    const uint32_t values[] = {
        static_cast<uint32_t>(left),
        static_cast<uint32_t>(left + 1),
        static_cast<uint32_t>(rng.below(left + 1)),
        (256u << 20),
        (256u << 20) + 1,
        0x7fffffffu,
        0xffffffffu,
        static_cast<uint32_t>(rng()),
    };
    return values[rng.below(std::size(values))];
}

/** One mutation of @p bytes; @p donor is another segment. */
void
mutateSegment(std::vector<uint8_t> &bytes, const std::vector<uint8_t> &donor,
              int kind, dsp::Rng &rng)
{
    switch (kind) {
    case 0:
        if (!bytes.empty())
            for (std::size_t e = 1 + rng.below(4); e > 0; --e)
                bytes[rng.below(bytes.size())] ^=
                    static_cast<uint8_t>(1 + rng.below(255));
        break;
    case 1:
        bytes.resize(rng.below(bytes.size() + 1));
        break;
    case 2: {
        // Replace a random range with a random range of the donor;
        // half the time cut on record boundaries, which can leave a
        // whole foreign record in place.
        std::vector<std::size_t> mine, theirs;
        bool torn;
        referenceScan(bytes, torn, &mine);
        referenceScan(donor, torn, &theirs);
        mine.push_back(bytes.size());
        theirs.push_back(donor.size());
        std::size_t at, cut, from, len;
        if (rng.below(2) == 0) {
            at = mine[rng.below(mine.size())];
            cut = mine[rng.below(mine.size())];
            cut = cut > at ? cut - at : 0;
            from = theirs[rng.below(theirs.size())];
            len = theirs[rng.below(theirs.size())];
            len = len > from ? len - from : 0;
        } else {
            at = rng.below(bytes.size() + 1);
            cut = rng.below(bytes.size() - at + 1);
            from = rng.below(donor.size() + 1);
            len = rng.below(donor.size() - from + 1);
        }
        bytes.erase(bytes.begin() + static_cast<long>(at),
                    bytes.begin() + static_cast<long>(at + cut));
        bytes.insert(bytes.begin() + static_cast<long>(at),
                     donor.begin() + static_cast<long>(from),
                     donor.begin() + static_cast<long>(from + len));
        break;
    }
    default: {
        // Inflate one record's payload length; sometimes re-seal the
        // CRC over the bytes it now claims, when they exist.
        std::vector<std::size_t> offsets;
        bool torn;
        referenceScan(bytes, torn, &offsets);
        if (offsets.empty())
            break;
        const std::size_t at = offsets[rng.below(offsets.size())];
        SpoolRecordHeader h;
        std::memcpy(&h, bytes.data() + at, kHeader);
        const std::size_t left = bytes.size() - at - kHeader;
        h.payloadBytes = hostileLength(rng, left);
        if (h.payloadBytes <= left && rng.below(2) == 0)
            h.crc = recordCrc(h, bytes.data() + at + kHeader);
        std::memcpy(bytes.data() + at, &h, kHeader);
        break;
    }
    }
}

/** Check @p spool's index against @p ex; fetch every entry. */
void
expectIndexMatches(const ResultSpool &spool, const Expected &ex,
                   const std::string &label)
{
    EXPECT_EQ(spool.recovery().results, ex.results) << label;
    EXPECT_EQ(spool.recovery().tornRecords, ex.torn) << label;
    const auto entries = spool.list();
    ASSERT_EQ(entries.size(), ex.byId.size()) << label;
    uint64_t last_order = 0;
    for (const auto &e : entries) {
        const std::string hex = sessionIdToHex(e.id);
        const auto it = ex.byId.find(hex);
        ASSERT_NE(it, ex.byId.end()) << label << " " << hex;
        EXPECT_GE(it->second.order, last_order) << label << " " << hex;
        last_order = it->second.order;
        EXPECT_EQ(e.status, it->second.status) << label << " " << hex;
        EXPECT_EQ(e.acked, it->second.acked) << label << " " << hex;
        EXPECT_EQ(e.payloadBytes, it->second.payload.size())
            << label << " " << hex;
        uint32_t status = 99;
        std::vector<uint8_t> payload;
        std::string error;
        ASSERT_TRUE(spool.fetch(e.id, status, payload, &error))
            << label << " " << hex << ": " << error;
        EXPECT_EQ(status, it->second.status) << label << " " << hex;
        EXPECT_EQ(payload, it->second.payload) << label << " " << hex;
    }
}

/** Damage the files under an open spool, then fetch everything: each
 *  answer is the recovered record's exact bytes or a typed error. */
void
damageAtRestThenFetch(const ResultSpool &spool, const Expected &ex,
                      const std::string &dir, std::size_t segmentCount,
                      dsp::Rng &rng, const std::string &label)
{
    const std::size_t seq = rng.below(segmentCount);
    auto bytes = test::readFileBytes(segmentPath(dir, seq));
    std::vector<std::size_t> offsets;
    bool torn;
    referenceScan(bytes, torn, &offsets);
    if (rng.below(2) == 0 && offsets.size() >= 2) {
        // Swap two records of equal length: both still verify, but
        // each now sits where the index expects the other.
        std::vector<std::pair<std::size_t, std::size_t>> spans;
        offsets.push_back(bytes.size());
        for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
            spans.emplace_back(offsets[i], offsets[i + 1] - offsets[i]);
        const auto a = spans[rng.below(spans.size())];
        for (const auto &b : spans)
            if (b.first != a.first && b.second == a.second) {
                std::swap_ranges(
                    bytes.begin() + static_cast<long>(a.first),
                    bytes.begin() + static_cast<long>(a.first + a.second),
                    bytes.begin() + static_cast<long>(b.first));
                break;
            }
    } else if (!bytes.empty()) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.below(255));
    }
    test::writeFileBytes(segmentPath(dir, seq), bytes);

    for (const auto &e : spool.list()) {
        const std::string hex = sessionIdToHex(e.id);
        const auto &want = ex.byId.at(hex);
        uint32_t status = 99;
        std::vector<uint8_t> payload;
        std::string error;
        if (spool.fetch(e.id, status, payload, &error)) {
            EXPECT_EQ(status, want.status) << label << " " << hex;
            EXPECT_EQ(payload, want.payload) << label << " " << hex;
        } else {
            EXPECT_FALSE(error.empty()) << label << " " << hex;
        }
    }
}

} // namespace

TEST(SpoolFuzz, RecoveryKeepsTheLongestValidPrefixOfMutatedSegments)
{
    const test::ScratchDir scratch("spool_fuzz");
    const auto reference = referenceSegments(scratch.path() + "/ref");
    ASSERT_GE(reference.size(), 3u);
    const std::string dir = scratch.path() + "/round";

    const char *kinds[] = {"flip", "truncate", "splice", "inflate"};
    dsp::Rng rng(20261020);
    for (int round = 0; round < 1200; ++round) {
        const int kind = round % 4;
        const std::string label =
            std::string(kinds[kind]) + " round " + std::to_string(round);
        auto segments = reference;
        const std::size_t victim = rng.below(segments.size());
        mutateSegment(segments[victim],
                      reference[rng.below(reference.size())], kind, rng);
        fs::remove_all(dir);
        fs::create_directories(dir);
        for (std::size_t seq = 0; seq < segments.size(); ++seq)
            test::writeFileBytes(segmentPath(dir, seq), segments[seq]);
        const Expected ex = expectedIndex(segments);

        ResultSpool spool;
        ResultSpool::Options options;
        options.dir = dir;
        options.segmentBytes = 700;
        std::string error;
        ASSERT_TRUE(spool.open(options, &error)) << label << ": " << error;
        expectIndexMatches(spool, ex, label);

        if (round % 8 < 4) {
            // Append after recovery: a new segment, old bytes untouched.
            const SessionId fresh = makeId(1000 + round);
            ASSERT_TRUE(spool.append(fresh, 0, {1, 2, 3}, &error))
                << label << ": " << error;
            for (std::size_t seq = 0; seq < segments.size(); ++seq)
                EXPECT_EQ(test::readFileBytes(segmentPath(dir, seq)),
                          segments[seq])
                    << label << " segment " << seq;
            spool.close();
            ResultSpool reopened;
            ASSERT_TRUE(reopened.open(options, &error))
                << label << ": " << error;
            auto grown = segments;
            grown.push_back(test::readFileBytes(
                segmentPath(dir, segments.size())));
            const Expected ex2 = expectedIndex(grown);
            EXPECT_TRUE(ex2.byId.count(sessionIdToHex(fresh))) << label;
            expectIndexMatches(reopened, ex2, label + " reopened");
        } else {
            damageAtRestThenFetch(spool, ex, dir, segments.size(), rng,
                                  label);
        }
        if (::testing::Test::HasFailure())
            return;
    }
}
