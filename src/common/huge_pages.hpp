/**
 * @file
 * Transparent-huge-page advice for large, freshly allocated buffers.
 *
 * A buffer that is first written by a fresh allocation faults its
 * pages in one at a time.  With 4 KiB pages a 64 MiB span buffer takes
 * 16384 faults, and when every analysis worker faults its own buffer
 * at once they contend on the process's memory map: four workers
 * faulting 64 MiB each spent ~220 ms of wall time on a 4-vCPU x86-64
 * VM, against ~40 ms with 2 MiB pages.  Where THP runs in `madvise`
 * mode, only advised ranges get 2 MiB pages.
 *
 * The advice changes page size only, never contents, so results stay
 * bit-identical whether or not the kernel honours it.
 */

#ifndef EMPROF_COMMON_HUGE_PAGES_HPP
#define EMPROF_COMMON_HUGE_PAGES_HPP

#include <cstddef>
#include <cstdint>

namespace emprof::common {

constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/** A half-open address range [begin, end); empty when begin == end. */
struct AddressRange
{
    uintptr_t begin = 0;
    uintptr_t end = 0;

    std::size_t bytes() const { return end - begin; }
};

/**
 * The 2 MiB-aligned interior of [data, data + bytes): the start rounds
 * up and the end rounds down to a 2 MiB boundary.  Empty below 2 MiB,
 * for a null pointer, and when no whole aligned 2 MiB block fits.
 */
AddressRange hugePageInterior(const void *data, std::size_t bytes);

/**
 * Advise the kernel to back hugePageInterior(data, bytes) with huge
 * pages (madvise MADV_HUGEPAGE).  Call it before the buffer is first
 * touched.  Does nothing on an empty interior, where the call is not
 * supported, or when it fails: the advice is best effort.
 */
void adviseHugePages(const void *data, std::size_t bytes);

} // namespace emprof::common

#endif // EMPROF_COMMON_HUGE_PAGES_HPP
