/**
 * @file
 * One-shot runner implementation.
 */

#include "rec/oneshot.hh"

#include "crypto/sha1.hh"
#include "sea/pal.hh"

namespace mintcb::rec
{

Result<OneShotReport>
runOneShot(SecureExecutive &exec, const std::string &name,
           const OneShotBody &body, const OneShotOptions &options)
{
    machine::Machine &m = exec.machine();
    const sea::Pal identity = sea::Pal::fromLogic(
        name, options.codeBytes,
        [](sea::PalContext &) { return okStatus(); });

    auto secb = allocateSecb(m, identity, options.base,
                             options.dataPages, Duration::zero());
    if (!secb)
        return secb.error();

    machine::Cpu &core = m.cpu(options.cpu);
    const TimePoint start = core.now();

    auto launch = exec.slaunch(options.cpu, *secb);
    if (!launch)
        return launch.error();

    OneShotReport report;
    report.measurement = launch->measurement;
    report.palMeasurement = identity.measurement();

    PalHooks hooks(exec, *secb, options.cpu);
    auto output = body(hooks);

    // The PAL erases its memory before exiting regardless of outcome.
    for (PageNum p : secb->pages) {
        if (auto s = m.memory().zeroPage(p); !s.ok())
            return s.error();
    }

    if (!output) {
        // Abnormal completion: yield then let the OS SKILL it.
        exec.syield(*secb);
        exec.skill(*secb);
        return output.error();
    }
    report.output = output.take();

    if (auto s = exec.sfree(*secb, /*from_pal=*/true); !s.ok())
        return s.error();

    if (secb->sePcr) {
        if (options.quote) {
            m.tpmAs(options.cpu);
            auto quote =
                exec.sePcrs().quote(*secb->sePcr, m.rng().bytes(20));
            if (quote) {
                report.quote = quote.take();
                report.quoted = true;
            }
        }
        exec.sePcrs().release(*secb->sePcr);
    }

    report.total = core.now() - start;
    return report;
}

} // namespace mintcb::rec
