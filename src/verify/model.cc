/**
 * @file
 * Explorable-world implementation.
 *
 * Every transition mirrors rec::SecureExecutive's sequencing over the
 * real MemoryController / SePcrTpm / lifecycle functions, with the
 * validate-before-mutate discipline the explorer relies on: a rejected
 * action must leave the world untouched, so the explorer can try the
 * next candidate without replaying.
 */

#include "verify/model.hh"

#include "rec/lifecycle.hh"
#include "tpm/tpm.hh"

namespace mintcb::verify
{

namespace
{

/**
 * All Worlds share one ideal (zero-latency) TPM: SePcrTpm keeps its
 * own per-bank sePCR state and uses the base TPM only for timing
 * charges and signatures, so sharing is sound and keeps World
 * construction cheap enough for replay-based exploration.
 */
tpm::Tpm &
sharedTpm()
{
    static tpm::Tpm tpm(tpm::TpmVendor::ideal, /*seed=*/0x7eb1f1ed);
    return tpm;
}

} // namespace

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::none:
        return "none";
      case Mutation::suspendSkipsNone:
        return "suspend-skips-none";
      case Mutation::sfreeSkipsRelease:
        return "sfree-skips-release";
      case Mutation::skillLeavesSepcrBound:
        return "skill-leaves-sepcr-bound";
    }
    return "?";
}

std::string
Action::str() const
{
    switch (kind) {
      case Kind::slaunch:
        return "SLAUNCH(pal" + std::to_string(pal) + ", cpu" +
               std::to_string(cpu) + ")";
      case Kind::syield:
        return "SYIELD(pal" + std::to_string(pal) + ")";
      case Kind::sfree:
        return "SFREE(pal" + std::to_string(pal) + ")";
      case Kind::skill:
        return "SKILL(pal" + std::to_string(pal) + ")";
      case Kind::release:
        return "SEPCR_Free(pal" + std::to_string(pal) + ")";
    }
    return "?";
}

World::World(const ModelConfig &config, Mutation mutation)
    : cfg_(config), mutation_(mutation),
      mem_(static_cast<std::uint64_t>(config.pals) * config.pagesPerPal),
      ctrl_(mem_), bank_(sharedTpm(), config.sePcrs),
      pals_(config.pals)
{
    for (std::uint32_t i = 0; i < config.pals; ++i) {
        Pal &pal = pals_[i];
        for (std::uint32_t p = 0; p < config.pagesPerPal; ++p)
            pal.pages.push_back(i * config.pagesPerPal + p);
        // Distinct image per PAL => distinct sePCR identities.
        pal.image = Bytes{'p', 'a', 'l',
                          static_cast<std::uint8_t>(i)};
    }
}

Status
World::slaunch(Pal &pal, CpuId cpu)
{
    if (pal.state == rec::PalState::execute) {
        // No SLAUNCH on a bound SECB (Section 5.3.1).
        return Error(Errc::failedPrecondition,
                     "PAL is already executing");
    }
    if (auto s = rec::checkTransition(pal.state, rec::PalState::execute);
        !s.ok()) {
        return s;
    }
    for (const Pal &other : pals_) {
        if (other.runningOn && *other.runningOn == cpu) {
            return Error(Errc::resourceExhausted,
                         "CPU already runs another PAL");
        }
    }
    if (auto s = ctrl_.aclAcquire(pal.pages, cpu); !s.ok())
        return s;
    if (!pal.measuredFlag) {
        auto handle = bank_.allocateAndMeasure(pal.image,
                                               tpm::Locality::hardware);
        if (!handle) {
            ctrl_.aclRelease(pal.pages); // unwind, as the hardware does
            return handle.error();
        }
        pal.sePcr = *handle;
        pal.measuredFlag = true;
    }
    pal.state = rec::PalState::execute;
    pal.runningOn = cpu;
    return okStatus();
}

Status
World::syield(Pal &pal)
{
    if (pal.state != rec::PalState::execute || !pal.runningOn) {
        return Error(Errc::failedPrecondition,
                     "SYIELD outside PAL execution");
    }
    if (auto s = rec::checkTransition(pal.state, rec::PalState::suspend);
        !s.ok()) {
        return s;
    }
    if (mutation_ != Mutation::suspendSkipsNone) {
        if (auto s = ctrl_.aclSuspend(pal.pages, *pal.runningOn);
            !s.ok()) {
            return s;
        }
    }
    pal.state = rec::PalState::suspend;
    pal.runningOn.reset();
    return okStatus();
}

Status
World::sfree(Pal &pal)
{
    if (pal.state != rec::PalState::execute || !pal.runningOn) {
        return Error(Errc::failedPrecondition,
                     "SFREE requires an executing PAL");
    }
    if (auto s = rec::checkTransition(pal.state, rec::PalState::done);
        !s.ok()) {
        return s;
    }
    if (pal.sePcr) {
        if (auto s = bank_.transitionToQuote(*pal.sePcr,
                                             tpm::Locality::hardware);
            !s.ok()) {
            return s;
        }
    }
    if (mutation_ != Mutation::sfreeSkipsRelease) {
        if (auto s = ctrl_.aclRelease(pal.pages); !s.ok())
            return s;
    }
    pal.state = rec::PalState::done;
    pal.runningOn.reset();
    return okStatus();
}

Status
World::skill(Pal &pal)
{
    if (pal.state != rec::PalState::suspend) {
        return Error(Errc::failedPrecondition,
                     "SKILL applies to suspended PALs");
    }
    if (auto s = rec::checkTransition(pal.state, rec::PalState::done);
        !s.ok()) {
        return s;
    }
    for (PageNum p : pal.pages) {
        if (auto s = mem_.zeroPage(p); !s.ok())
            return s;
    }
    if (auto s = ctrl_.aclRelease(pal.pages); !s.ok())
        return s;
    if (pal.sePcr) {
        if (mutation_ == Mutation::skillLeavesSepcrBound) {
            // Bug under test: the sePCR stays Exclusive forever.
        } else {
            if (auto s = bank_.kill(*pal.sePcr, tpm::Locality::hardware);
                !s.ok()) {
                return s;
            }
            pal.sePcr.reset(); // hardware freed it; the handle is dead
        }
    }
    pal.state = rec::PalState::done;
    return okStatus();
}

Status
World::release(Pal &pal)
{
    if (pal.state != rec::PalState::done || !pal.sePcr) {
        return Error(Errc::failedPrecondition,
                     "TPM_SEPCR_Free needs an exited PAL with a handle");
    }
    if (auto s = bank_.release(*pal.sePcr); !s.ok())
        return s;
    pal.sePcr.reset();
    return okStatus();
}

Status
World::apply(const Action &action)
{
    if (action.pal >= pals_.size())
        return Error(Errc::invalidArgument, "PAL index out of range");
    if (action.kind == Action::Kind::slaunch && action.cpu >= cfg_.cpus)
        return Error(Errc::invalidArgument, "CPU index out of range");
    Pal &pal = pals_[action.pal];
    switch (action.kind) {
      case Action::Kind::slaunch:
        return slaunch(pal, action.cpu);
      case Action::Kind::syield:
        return syield(pal);
      case Action::Kind::sfree:
        return sfree(pal);
      case Action::Kind::skill:
        return skill(pal);
      case Action::Kind::release:
        return release(pal);
    }
    return Error(Errc::invalidArgument, "unknown action");
}

std::vector<Action>
World::candidateActions() const
{
    std::vector<Action> out;
    for (std::uint32_t i = 0; i < pals_.size(); ++i) {
        for (CpuId c = 0; c < cfg_.cpus; ++c)
            out.push_back({Action::Kind::slaunch, i, c});
        out.push_back({Action::Kind::syield, i, 0});
        out.push_back({Action::Kind::sfree, i, 0});
        out.push_back({Action::Kind::skill, i, 0});
        out.push_back({Action::Kind::release, i, 0});
    }
    return out;
}

WorldSnapshot
World::snapshot() const
{
    WorldSnapshot w;
    w.pages.resize(ctrl_.pages());
    for (PageNum p = 0; p < ctrl_.pages(); ++p)
        w.pages[p] = {ctrl_.pageState(p), ctrl_.pageOwnerMask(p)};
    w.sePcrs.resize(bank_.count());
    for (std::size_t h = 0; h < bank_.count(); ++h)
        w.sePcrs[h] = {bank_.state(static_cast<rec::SePcrHandle>(h))};
    for (const Pal &pal : pals_) {
        PalView v;
        v.state = pal.state;
        v.runningOn = pal.runningOn;
        v.sePcr = pal.sePcr;
        v.pages = pal.pages;
        v.measuredFlag = pal.measuredFlag;
        w.pals.push_back(std::move(v));
    }
    return w;
}

Status
World::crossCheckAccess() const
{
    const WorldSnapshot w = snapshot();
    for (PageNum p = 0; p < w.pages.size(); ++p) {
        const PageView &page = w.pages[p];
        const bool dma_ok =
            ctrl_.read(machine::Agent::forDevice(), pageBase(p), 1).ok();
        if (dma_ok != (page.state == machine::PageState::all)) {
            return Error(Errc::integrityFailure,
                         "page " + std::to_string(p) +
                             ": DMA admission disagrees with the "
                             "ownership view");
        }
        for (CpuId c = 0; c < cfg_.cpus; ++c) {
            const bool cpu_ok =
                ctrl_.read(machine::Agent::forCpu(c), pageBase(p), 1)
                    .ok();
            bool expect = false;
            switch (page.state) {
              case machine::PageState::all:
                expect = true;
                break;
              case machine::PageState::owned:
                expect = (page.ownerMask >> c) & 1;
                break;
              case machine::PageState::none:
                expect = false;
                break;
            }
            if (cpu_ok != expect) {
                return Error(
                    Errc::integrityFailure,
                    "page " + std::to_string(p) + ", CPU " +
                        std::to_string(c) +
                        ": controller admission disagrees with the "
                        "ownership view");
            }
        }
    }
    return okStatus();
}

} // namespace mintcb::verify
