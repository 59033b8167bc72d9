#include "common/huge_pages.hpp"

#include <sys/mman.h>

namespace emprof::common {

AddressRange
hugePageInterior(const void *data, std::size_t bytes)
{
    const auto start = reinterpret_cast<uintptr_t>(data);
    if (data == nullptr || bytes < kHugePageBytes ||
        start > UINTPTR_MAX - bytes)
        return {};
    const uintptr_t mask = kHugePageBytes - 1;
    const uintptr_t begin = (start + mask) & ~mask;
    const uintptr_t end = (start + bytes) & ~mask;
    if (begin >= end)
        return {};
    return {begin, end};
}

void
adviseHugePages(const void *data, std::size_t bytes)
{
#if defined(MADV_HUGEPAGE)
    const AddressRange range = hugePageInterior(data, bytes);
    if (range.bytes() != 0)
        (void)::madvise(reinterpret_cast<void *>(range.begin), range.bytes(),
                        MADV_HUGEPAGE);
#else
    (void)data;
    (void)bytes;
#endif
}

} // namespace emprof::common
