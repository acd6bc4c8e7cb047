/**
 * @file
 * Physical memory implementation.
 */

#include "machine/memory.hh"

#include <algorithm>

namespace mintcb::machine
{

PhysicalMemory::PhysicalMemory(std::uint64_t pages)
    : pages_(pages), frames_(pages)
{
}

bool
PhysicalMemory::contains(PhysAddr addr, std::uint64_t len) const
{
    return addr <= sizeBytes() && len <= sizeBytes() - addr;
}

Result<Bytes>
PhysicalMemory::read(PhysAddr addr, std::uint64_t len) const
{
    if (!contains(addr, len))
        return Error(Errc::invalidArgument, "physical read out of range");
    Bytes out(len, 0);
    for (std::uint64_t done = 0; done < len;) {
        const PhysAddr at = addr + done;
        const std::uint64_t offset = at % pageSize;
        const std::uint64_t n = std::min(len - done, pageSize - offset);
        if (const Frame *frame = frames_[pageOf(at)].get()) {
            std::copy_n(frame->begin() + offset, n,
                        out.begin() + static_cast<std::ptrdiff_t>(done));
        }
        done += n;
    }
    return out;
}

Status
PhysicalMemory::write(PhysAddr addr, const Bytes &data)
{
    if (!contains(addr, data.size()))
        return Error(Errc::invalidArgument, "physical write out of range");
    for (std::uint64_t done = 0; done < data.size();) {
        const PhysAddr at = addr + done;
        const std::uint64_t offset = at % pageSize;
        const std::uint64_t n =
            std::min<std::uint64_t>(data.size() - done, pageSize - offset);
        std::unique_ptr<Frame> &frame = frames_[pageOf(at)];
        if (!frame) {
            frame = std::make_unique<Frame>(); // value-initialised: zeros
            ++resident_;
        }
        std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(done), n,
                    frame->begin() + offset);
        done += n;
    }
    return okStatus();
}

Status
PhysicalMemory::zeroPage(PageNum page)
{
    if (page >= pages_)
        return Error(Errc::invalidArgument, "page out of range");
    if (frames_[page]) {
        frames_[page].reset();
        --resident_;
    }
    return okStatus();
}

} // namespace mintcb::machine
