/**
 * @file
 * SLAUNCH / SYIELD / SFREE / SKILL semantics (paper Figures 6 and 7).
 */

#include "rec/instructions.hh"

#include "crypto/sha1.hh"
#include "latelaunch/slb.hh"

namespace mintcb::rec
{

using machine::Cpu;
using machine::PageState;

const char *
execEventName(ExecEvent e)
{
    switch (e) {
      case ExecEvent::slaunchMeasure: return "SLAUNCH(measure)";
      case ExecEvent::slaunchResume: return "SLAUNCH(resume)";
      case ExecEvent::syield: return "SYIELD";
      case ExecEvent::sfree: return "SFREE";
      case ExecEvent::skill: return "SKILL";
    }
    return "?";
}

SecureExecutive::SecureExecutive(machine::Machine &machine,
                                 std::size_t sepcr_count)
    : machine_(machine), sePcrs_(machine.tpm(), sepcr_count),
      runningOnCpu_(machine.cpuCount(), nullptr)
{
}

Result<SlaunchReport>
SecureExecutive::slaunch(CpuId cpu, Secb &secb)
{
    if (secb.pages.empty())
        return Error(Errc::invalidArgument, "SECB has no pages");
    if (secb.state == PalState::execute) {
        // "Once a PAL is executing on a CPU, any other CPU that tries to
        // resume the same PAL will fail" (Section 5.3.1).
        return Error(Errc::failedPrecondition,
                     "PAL is already executing");
    }
    if (auto s = checkTransition(secb.state, PalState::execute); !s.ok())
        return s.error();

    // The Measured Flag is honored only if the SECB's pages are in NONE
    // (Section 5.3.1) -- otherwise the OS could replay a forged MF=1
    // SECB and run unmeasured code under a stale identity.
    bool pages_were_none = true;
    for (PageNum p : secb.pages)
        pages_were_none &= machine_.memctrl().pageState(p) == PageState::none;
    const bool resume = secb.measuredFlag && pages_were_none;

    if (auto s = machine_.memctrl().aclAcquire(secb.pages, cpu); !s.ok())
        return s.error();

    Cpu &core = machine_.cpu(cpu);
    const TimePoint start = core.now();
    SlaunchReport report;

    if (resume) {
        // Fast path: the whole context switch is a VM-entry-class world
        // switch (Section 5.3.2 / Table 2).
        if (!secb.saved.valid) {
            machine_.memctrl().aclSuspend(secb.pages, cpu);
            return Error(Errc::failedPrecondition,
                         "SECB carries no saved CPU state to resume");
        }
        core.advance(
            machine_.spec().vmTiming.sampleEnter(machine_.rng()));
        core.setInterruptsEnabled(false);
        secb.saved.valid = false;
    } else {
        // Slow path: full measurement, as SKINIT pays today.
        report.firstLaunch = true;
        core.resetToTrustedState(machine_.spec().cpuStateInit);

        auto image = machine_.readAs(cpu, secb.base,
                                     latelaunch::slbHeaderBytes);
        if (!image) {
            machine_.memctrl().aclRelease(secb.pages);
            return image.error();
        }
        const std::size_t length = latelaunch::Slb::decodeLengthWord(
            static_cast<std::uint16_t>((*image)[0]) |
            static_cast<std::uint16_t>((*image)[1]) << 8);
        auto full = machine_.readAs(cpu, secb.base, length);
        if (!full) {
            machine_.memctrl().aclRelease(secb.pages);
            return full.error();
        }

        // Hardware TPM lock arbitrates concurrent launches
        // (Section 5.4.5).
        auto &tpm = machine_.tpmAs(cpu);
        if (!tpm.tryLock(cpu)) {
            machine_.memctrl().aclRelease(secb.pages);
            return Error(Errc::resourceExhausted,
                         "TPM busy measuring another PAL");
        }
        // The TPM reports sePCR exhaustion when the hash sequence opens,
        // *before* the PAL streams across the LPC bus (Section 5.4.1:
        // "If no sePCR is available, SLAUNCH must return a failure
        // code") -- so a doomed launch is cheap.
        if (sePcrs_.freeCount() == 0) {
            tpm.unlock(cpu);
            machine_.memctrl().aclRelease(secb.pages);
            return Error(Errc::resourceExhausted,
                         "no free sePCR: concurrent-PAL limit reached");
        }
        const TimePoint measure_start = core.now();
        machine_.lpc().transferTracked(full->size(), core.clock());
        tpm.charge(tpm.profile().hashStartStop, "tpm:hash_seq");
        tpm.charge(tpm.profile().hashWaitPerByte *
                       static_cast<double>(full->size()),
                   "tpm:hash_data");
        auto handle =
            sePcrs_.allocateAndMeasure(*full, tpm::Locality::hardware);
        tpm.unlock(cpu);
        if (!handle) {
            machine_.memctrl().aclRelease(secb.pages);
            return handle.error();
        }
        report.measurement = core.now() - measure_start;

        secb.sePcr = *handle;
        secb.measuredFlag = true;
        core.setInterruptsEnabled(false);
        // Stack pointer at the top of the allocated region "allowing the
        // PAL to confirm the size of its data memory region".
        secb.saved.stackPointer =
            pageBase(secb.pages.back()) + pageSize;
        secb.saved.valid = false;
    }

    if (secb.preemptionTimer > Duration::zero())
        core.armPreemptionTimer(secb.preemptionTimer);

    // Scheduling an IDT-carrying PAL reprograms the interrupt routing
    // logic (Section 6's overhead caveat).
    if (!secb.interruptVectors.empty())
        core.advance(idtReprogramCost);

    secb.state = PalState::execute;
    secb.runningOn = cpu;
    runningOnCpu_.at(cpu) = &secb;
    ++secb.launches;
    report.total = core.now() - start;
    if (resume) {
        ++contextSwitches_;
        contextSwitchTime_ += report.total;
    }
    notify(resume ? ExecEvent::slaunchResume : ExecEvent::slaunchMeasure,
           cpu, secb);
    return report;
}

Status
SecureExecutive::syield(Secb &secb)
{
    if (secb.state != PalState::execute || !secb.runningOn) {
        return Error(Errc::failedPrecondition,
                     "SYIELD outside PAL execution");
    }
    if (auto s = checkTransition(secb.state, PalState::suspend); !s.ok())
        return s;

    const CpuId cpu = *secb.runningOn;
    Cpu &core = machine_.cpu(cpu);
    const TimePoint start = core.now();

    // Hardware saves the architectural state into the SECB...
    secb.saved.valid = true;
    secb.saved.instructionPointer = 0xf11c4e5;

    // ...signals the memory controller that the pages are off limits...
    if (auto s = machine_.memctrl().aclSuspend(secb.pages, cpu); !s.ok())
        return s;

    // ...and clears leak-capable microarchitectural state.
    core.secureStateClear(machine_.spec().microarchFlush);
    core.advance(machine_.spec().vmTiming.sampleExit(machine_.rng()));
    core.disarmPreemptionTimer();
    core.setInterruptsEnabled(true); // control returns to the OS handler

    secb.state = PalState::suspend;
    secb.resumeFlag = true;
    runningOnCpu_.at(cpu) = nullptr;
    secb.runningOn.reset();
    ++secb.yields;
    ++contextSwitches_;
    contextSwitchTime_ += core.now() - start;
    notify(ExecEvent::syield, cpu, secb);
    return okStatus();
}

Result<Duration>
SecureExecutive::executeFor(Secb &secb, Duration work)
{
    if (secb.state != PalState::execute || !secb.runningOn) {
        return Error(Errc::failedPrecondition,
                     "executeFor requires an executing PAL");
    }
    Cpu &core = machine_.cpu(*secb.runningOn);
    const auto budget = core.preemptionBudget();
    const bool preempt = budget && *budget < work;
    const Duration slice = preempt ? *budget : work;
    core.advance(slice);
    secb.executed += slice;
    if (preempt) {
        // Timer expiry: hardware-forced SYIELD.
        ++secb.preemptions;
        if (auto s = syield(secb); !s.ok())
            return s.error();
    }
    return slice;
}

Status
SecureExecutive::sfree(Secb &secb, bool from_pal)
{
    if (secb.state != PalState::execute || !secb.runningOn) {
        return Error(Errc::failedPrecondition,
                     "SFREE requires an executing PAL");
    }
    if (!from_pal) {
        // "SFREE executed by other code must fail. This can be detected
        // by verifying that the SFREE instruction resides at a physical
        // memory address inside the PAL's memory region" (Section 5.5).
        return Error(Errc::permissionDenied,
                     "SFREE must execute from inside the PAL");
    }
    if (auto s = checkTransition(secb.state, PalState::done); !s.ok())
        return s;

    const CpuId cpu = *secb.runningOn;
    Cpu &core = machine_.cpu(cpu);

    // sePCR: Exclusive -> Quote, so untrusted code can attest the run.
    if (secb.sePcr) {
        if (auto s = sePcrs_.transitionToQuote(*secb.sePcr,
                                               tpm::Locality::hardware);
            !s.ok()) {
            return s;
        }
    }

    // Pages back to ALL (the PAL erased its own secrets beforehand).
    if (auto s = machine_.memctrl().aclRelease(secb.pages); !s.ok())
        return s;

    core.secureStateClear(machine_.spec().microarchFlush);
    core.advance(machine_.spec().vmTiming.sampleExit(machine_.rng()));
    core.disarmPreemptionTimer();
    core.setInterruptsEnabled(true);

    secb.state = PalState::done;
    runningOnCpu_.at(cpu) = nullptr;
    secb.runningOn.reset();
    notify(ExecEvent::sfree, cpu, secb);
    return okStatus();
}

Status
SecureExecutive::skill(Secb &secb)
{
    // Figure 6: SKILL runs on a *suspended* (misbehaving) PAL.
    if (secb.state != PalState::suspend) {
        return Error(Errc::failedPrecondition,
                     "SKILL applies to suspended PALs");
    }
    if (auto s = checkTransition(secb.state, PalState::done); !s.ok())
        return s;

    // Hardware erases every page before anything else can see it; a
    // page it cannot erase is never released.
    for (PageNum p : secb.pages) {
        if (auto s = machine_.memory().zeroPage(p); !s.ok())
            return s;
    }
    if (auto s = machine_.memctrl().aclRelease(secb.pages); !s.ok())
        return s;

    if (secb.sePcr) {
        if (auto s = sePcrs_.kill(*secb.sePcr, tpm::Locality::hardware);
            !s.ok()) {
            return s;
        }
    }

    secb.state = PalState::done;
    secb.saved.valid = false;
    // The OS reclaims a suspended PAL; by convention the boot CPU
    // executes SKILL in this simulation.
    notify(ExecEvent::skill, 0, secb);
    return okStatus();
}

Status
SecureExecutive::configureIdt(Secb &secb,
                              std::vector<std::uint8_t> vectors)
{
    if (secb.state != PalState::execute) {
        return Error(Errc::failedPrecondition,
                     "only a running PAL may install its IDT");
    }
    secb.interruptVectors = std::move(vectors);
    return okStatus();
}

Result<bool>
SecureExecutive::deliverInterrupt(CpuId cpu, std::uint8_t vector)
{
    if (cpu >= machine_.cpuCount())
        return Error(Errc::invalidArgument, "CPU out of range");
    Secb *running = runningOnCpu_.at(cpu);
    if (!running) {
        // No PAL on this core: the OS takes it as usual.
        return false;
    }
    // A PAL core has interrupts masked unless the PAL opted in to this
    // exact vector (Section 6: "Routing only the interrupts the PAL is
    // interested in").
    for (std::uint8_t v : running->interruptVectors) {
        if (v == vector) {
            machine_.cpu(cpu).advance(Duration::nanos(300)); // dispatch
            ++palInterrupts_;
            return true;
        }
    }
    return false;
}

Status
SecureExecutive::join(CpuId joining_cpu, Secb &secb)
{
    if (secb.state != PalState::execute || !secb.runningOn) {
        return Error(Errc::failedPrecondition,
                     "join requires an executing PAL");
    }
    if (auto s = machine_.memctrl().aclJoin(secb.pages, *secb.runningOn,
                                            joining_cpu);
        !s.ok()) {
        return s;
    }
    Cpu &joiner = machine_.cpu(joining_cpu);
    joiner.advance(machine_.spec().vmTiming.sampleEnter(machine_.rng()));
    joiner.setInterruptsEnabled(false);
    return okStatus();
}

} // namespace mintcb::rec
