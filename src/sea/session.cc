/**
 * @file
 * SEA session implementation.
 */

#include "sea/session.hh"

#include <utility>

#include "crypto/sha1.hh"

namespace mintcb::sea
{

SeaDriver::SeaDriver(machine::Machine &machine)
    : machine_(machine), launcher_(machine)
{
}

Bytes
SeaDriver::expectedIoBoundPcr17(const Pal &pal, const Bytes &input,
                                const Bytes &output)
{
    auto extend = [](const Bytes &value, const Bytes &measurement) {
        crypto::Sha1 ctx;
        ctx.update(value);
        ctx.update(measurement);
        const auto digest = ctx.finish();
        return Bytes(digest.begin(), digest.end());
    };
    Bytes pcr = pal.expectedPcr17(); // extend(0, H(pal))
    pcr = extend(pcr, crypto::Sha1::digestBytes(input));
    pcr = extend(pcr, crypto::Sha1::digestBytes(output));
    return pcr;
}

Result<ExecutionReport>
SeaDriver::run(const PalRequest &request, CpuId cpu)
{
    const Pal &pal = request.pal;
    const Bytes &input = request.input;
    machine::Cpu &core = machine_.cpu(cpu);
    ExecutionReport report;
    report.palName = pal.name();
    report.backend = "sea-oneshot";
    report.cpu = cpu;
    const TimePoint session_start = core.now();
    report.submittedAt = session_start;
    report.startedAt = session_start;

    // 1. Suspend the untrusted OS. "The suspend of the untrusted system
    //    is efficient because all necessary system state can simply
    //    remain in-place in memory" (Section 3.3).
    core.advance(osSuspendCost);
    const Duration suspend_os = core.now() - session_start;

    // 2. Place the SLB and late launch.
    const Bytes image = pal.slbImage();
    if (auto s = machine_.writeAs(cpu, slbLoadAddress, image); !s.ok())
        return s.error();
    const TimePoint launch_start = core.now();
    auto launch = launcher_.invoke(cpu, slbLoadAddress);
    if (!launch)
        return launch.error();
    const Duration late_launch = core.now() - launch_start;
    report.phases.launch = suspend_os + late_launch;
    report.launches = 1;
    report.palMeasurement = launch->slbMeasurement;
    Bytes pcr17_evidence;
    if (machine_.hasTpm()) {
        auto pcr17 = machine_.tpm().pcrs().read(tpm::dynamicLaunchPcr);
        pcr17_evidence = pcr17.ok() ? *pcr17 : Bytes{};
    }

    // 2b. I/O binding: the PAL's first act is to measure its inputs
    //     into PCR 17, closing the load-time-attestation gap of
    //     footnote 3 (inputs can no longer be swapped post-quote).
    if (bindIo_ && machine_.hasTpm()) {
        if (auto s = machine_.tpmAs(cpu).pcrExtend(
                tpm::dynamicLaunchPcr,
                crypto::Sha1::digestBytes(input));
            !s.ok()) {
            return s.error();
        }
    }

    // 3. Execute the PAL body with hardware protections up.
    PalContext ctx(machine_, cpu, input);
    ctx.setStateStore(request.stateStore);
    const TimePoint body_start = core.now();
    const Status body_status = pal.body()(ctx);
    const Duration body_total = core.now() - body_start;
    const Duration seal = ctx.sealTime();
    const Duration unseal = ctx.unsealTime();
    report.phases.transition = seal + unseal;
    report.phases.compute = body_total - seal - unseal;
    report.output = ctx.output();

    // 3b. I/O binding: the last in-PAL act is to measure the output, so
    //     the quoted PCR 17 covers code + input + output.
    if (bindIo_ && machine_.hasTpm() && body_status.ok()) {
        if (auto s = machine_.tpmAs(cpu).pcrExtend(
                tpm::dynamicLaunchPcr,
                crypto::Sha1::digestBytes(ctx.output()));
            !s.ok()) {
            return s.error();
        }
        auto pcr17 = machine_.tpm().pcrs().read(tpm::dynamicLaunchPcr);
        pcr17_evidence = pcr17.ok() ? *pcr17 : Bytes{};
    }

    // 4. PAL exit. First cap PCR 17 with a well-known exit marker so the
    //    untrusted world resuming afterwards can no longer pass the PAL's
    //    seal policy (Flicker's exit protocol): the PAL identity value is
    //    unreachable again until the next genuine late launch.
    if (machine_.hasTpm()) {
        machine_.tpmAs(cpu).pcrExtend(
            tpm::dynamicLaunchPcr,
            Bytes(crypto::sha1DigestSize, 0x45 /* 'E' for exit */));
    }
    //    Then erase the PAL region (its secrets die with it), drop the
    //    DEV protections, restart the siblings, resume the OS.
    for (PageNum p : launch->protectedPages) {
        if (auto s = machine_.memory().zeroPage(p); !s.ok())
            return s.error();
    }
    launcher_.releaseProtections(*launch);
    core.secureStateClear(machine_.spec().microarchFlush);
    core.setInterruptsEnabled(true);

    const TimePoint resume_start = core.now();
    core.advance(osResumeCost);
    report.phases.teardown = core.now() - resume_start;

    // Sibling cores were idle from the launch barrier until now.
    launcher_.resumeOtherCpus();
    report.finishedAt = core.now();
    report.total = report.finishedAt - session_start;
    const Duration stall = core.now() - launch_start;

    // Capability sections: the one-shot specifics a cross-architecture
    // consumer does not need but a Figure-2-style breakdown does.
    ReportSection &one_shot = report.section(Capability::oneShot);
    one_shot.addCost("suspend_os", suspend_os);
    one_shot.addCost("late_launch", late_launch);
    one_shot.addCost("resume_os", report.phases.teardown);
    ReportSection &sealed = report.section(Capability::sealedState);
    sealed.addCost("seal", seal);
    sealed.addCost("unseal", unseal);
    report.section(Capability::pcr17Evidence)
        .addEvidence("pcr17", std::move(pcr17_evidence));
    report.section(Capability::siblingStall)
        .addCost("stall",
                 stall * static_cast<double>(machine_.cpuCount() - 1));
    if (bindIo_)
        report.section(Capability::ioBinding).addCount("extends", 2);

    report.status = body_status;
    report.deadlineMet = request.deadline == TimePoint() ||
                         report.finishedAt <= request.deadline;
    return report;
}

} // namespace mintcb::sea
