/**
 * @file
 * Test helpers shared by the served-decoder tests: EMCAP captures as
 * in-memory byte vectors, and back to files for CaptureReader.
 */

#ifndef EMPROF_TESTS_SERVE_CAPTURE_BYTES_HPP
#define EMPROF_TESTS_SERVE_CAPTURE_BYTES_HPP

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "store/capture_writer.hpp"

namespace emprof::test {

/** Per-process scratch path: ctest runs each test case in its own
 *  process, in parallel, over one TempDir. */
inline std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

inline void
writeFileBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    ASSERT_EQ(std::fclose(f), 0);
}

inline std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr)
        return bytes;
    uint8_t buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

/** writeCapture() through a scratch file named @p name; the bytes. */
inline std::vector<uint8_t>
captureBytes(const dsp::TimeSeries &series,
             const store::WriterOptions &options, const std::string &name)
{
    const std::string path = tempPath(name);
    std::string error;
    EXPECT_TRUE(store::writeCapture(path, series, options, nullptr, &error))
        << error;
    auto bytes = readFileBytes(path);
    std::remove(path.c_str());
    return bytes;
}

/** Append the bytes of a format struct. */
template <typename T>
void
appendBytes(std::vector<uint8_t> &out, const T &value)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&value);
    out.insert(out.end(), p, p + sizeof(value));
}

/** A CRC-valid F32 file header declaring @p totalSamples. */
inline store::FileHeader
validHeader(uint64_t totalSamples)
{
    store::FileHeader header{};
    std::memcpy(header.magic, store::kEmcapMagic, sizeof(header.magic));
    header.version = store::kEmcapVersion;
    header.codec = static_cast<uint32_t>(store::SampleCodec::F32);
    header.sampleRateHz = 40e6;
    header.totalSamples = totalSamples;
    header.headerCrc = store::fileHeaderCrc(header);
    return header;
}

} // namespace emprof::test

#endif // EMPROF_TESTS_SERVE_CAPTURE_BYTES_HPP
