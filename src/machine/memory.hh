/**
 * @file
 * Raw physical memory for the simulated platform.
 *
 * Storage only; all access-control decisions live in the MemoryController
 * (the north bridge), exactly as in the paper's minimal-TCB picture
 * (Figure 1: CPU + RAM + the interface between them).
 *
 * RAM is sparse: a page gets host storage on its first write, and a page
 * without storage reads as zeros. zeroPage (SKILL/SFREE's secure erase)
 * drops the storage again, so host memory tracks the pages PALs touch,
 * not the platform's RAM size.
 */

#ifndef MINTCB_MACHINE_MEMORY_HH
#define MINTCB_MACHINE_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"

namespace mintcb::machine
{

/** Byte-addressable physical memory with page-granular helpers. */
class PhysicalMemory
{
  public:
    /** @p pages 4 KB pages of zeroed RAM. */
    explicit PhysicalMemory(std::uint64_t pages);

    std::uint64_t pages() const { return pages_; }
    std::uint64_t sizeBytes() const { return pages_ * pageSize; }

    /** Pages holding host storage: written since their last erase. */
    std::uint64_t residentPages() const { return resident_; }

    /** True when [addr, addr+len) lies inside RAM. */
    bool contains(PhysAddr addr, std::uint64_t len) const;

    /** Read @p len bytes at @p addr (bounds-checked). */
    Result<Bytes> read(PhysAddr addr, std::uint64_t len) const;

    /** Write @p data at @p addr (bounds-checked). */
    Status write(PhysAddr addr, const Bytes &data);

    /** Zero an entire page (SKILL's secure erase). */
    Status zeroPage(PageNum page);

  private:
    using Frame = std::array<std::uint8_t, pageSize>;

    std::uint64_t pages_;
    std::vector<std::unique_ptr<Frame>> frames_; //!< null = all zeros
    std::uint64_t resident_ = 0;
};

} // namespace mintcb::machine

#endif // MINTCB_MACHINE_MEMORY_HH
