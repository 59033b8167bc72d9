/**
 * @file
 * Helpers shared by the subcommands that read the generated inputs.
 */

#ifndef EMPROF_PERFBENCH_INPUTS_HPP
#define EMPROF_PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "profiler/profiler.hpp"
#include "store/capture_reader.hpp"

namespace perfbench {

/** Report titles; part of every digest. */
inline constexpr const char *kBatchTitle = "perfbench";
inline constexpr const char *kServedTitle = "served capture";

/** Data frame size of an upload, as the EMPROF clients send it; the
 *  local pipelines are fed in the same slices. */
inline constexpr std::size_t kDataFrameBytes = 64 * 1024;

/** Path of fleet upload @p i inside @p dir. */
std::string blobPath(const std::string &dir, std::size_t i);

/** Read a whole file. */
bool readBlob(const std::string &path, std::vector<uint8_t> &out);

/** Analysis config for a batch capture, as emprof_analyze builds it. */
emprof::profiler::EmProfConfig
batchConfig(const emprof::store::CaptureInfo &info, bool resilient);

/**
 * Run one upload through a local SessionPipeline (the daemon's default
 * config), fed one Data frame's payload at a time as the daemon feeds
 * it, and digest the Report the daemon would send for it.
 */
bool localSession(const std::vector<uint8_t> &blob, std::string &digest,
                  std::size_t *events = nullptr);

} // namespace perfbench

#endif // EMPROF_PERFBENCH_INPUTS_HPP
