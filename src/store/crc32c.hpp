/**
 * @file
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected).
 *
 * The EMCAP container checks every header, chunk, and footer with
 * CRC32C — the same polynomial iSCSI, btrfs, and ext4 use, chosen for
 * its better burst-error detection than CRC32 (IEEE) and because
 * hardware ISAs accelerate it (SSE4.2 crc32, ARMv8 CRC).
 *
 * Two kernels give the same digest for every input:
 *  - a portable slicing-by-8 table kernel (~2 GB/s);
 *  - an SSE4.2 kernel (crc32c_sse42.cpp, compiled with -msse4.2) that
 *    runs three crc32 instruction streams side by side and joins them
 *    with a zero-shift table (several times the table's speed).
 *
 * Dispatch: crc32c() picks the SSE4.2 kernel once, when (a) the
 * library was built without EMPROF_DISABLE_SIMD, (b) the CPU reports
 * SSE4.2, and (c) the EMPROF_SIMD environment variable does not force
 * "scalar" — the same switches the AVX2 batch kernels obey.  Both
 * kernels are exposed under detail:: for the differential tests.
 */

#ifndef EMPROF_STORE_CRC32C_HPP
#define EMPROF_STORE_CRC32C_HPP

#include <cstddef>
#include <cstdint>

namespace emprof::store {

/**
 * Extend a running CRC32C over @p len bytes.
 *
 * @param crc Value returned by a previous call, or 0 to start.
 * @return The updated checksum (already post-inverted; feed it back in
 *         unchanged to continue over the next buffer).
 */
uint32_t crc32c(uint32_t crc, const void *data, std::size_t len);

namespace detail {

/** The portable slicing-by-8 kernel; same contract as crc32c(). */
uint32_t crc32cTable(uint32_t crc, const void *data, std::size_t len);

#if !defined(EMPROF_DISABLE_SIMD)
/** The SSE4.2 kernel; call only when cpuHasSse42() is true. */
uint32_t crc32cSse42(uint32_t crc, const void *data, std::size_t len);
#endif

/** True if the SSE4.2 kernel is compiled in and this CPU supports it. */
bool cpuHasSse42();

} // namespace detail

} // namespace emprof::store

#endif // EMPROF_STORE_CRC32C_HPP
