/**
 * @file
 * The rec-service backend: a one-request SLAUNCH campaign.
 *
 * The campaign itself is ExecutionService::runCampaign, the engine the
 * service's own drains run for requests with backend "" or
 * "rec-service". This adapter serves direct registry users (the
 * backend-matrix bench, the leakage audit): it brings up a fresh
 * executive on the given machine, runs the campaign with the service's
 * default quantum and legacy core, and adds what only a standalone run
 * reports -- the reconstructed phase breakdown, the preemption count,
 * the sePCR bank size and the quote cost -- so all five zoo members
 * answer run() uniformly.
 */

#include "backend/backends.hh"

#include <algorithm>

#include "backend/registry.hh"
#include "sea/service.hh"

namespace mintcb::backend
{

namespace
{

class RecServiceBackend final : public Backend
{
  public:
    const BackendInfo &
    info() const override
    {
        static const BackendInfo inf{
            defaultBackendName,
            "scheduler TEE",
            "SLAUNCH preemptible slices under the recommended-hardware "
            "executive; sePCR identity + quote (paper Sections 5-6)",
            {sea::Capability::preemptible, sea::Capability::sealedState,
             sea::Capability::sePcr, sea::Capability::attestation,
             sea::Capability::ioBinding},
        };
        return inf;
    }

    Result<sea::ExecutionReport>
    run(machine::Machine &machine, const sea::PalRequest &request,
        CpuId cpu) const override
    {
        (void)cpu; // the campaign places the PAL on a PAL-eligible core
        const sea::ServiceConfig config;
        rec::SecureExecutive exec(machine, config.sePcrs);
        const sea::ExecutionService::Pending pending{request, 0,
                                                     machine.now()};
        auto campaign = sea::ExecutionService::runCampaign(
            exec, config, {&pending}, /*shard_id=*/0);
        if (!campaign)
            return campaign.error();
        sea::ExecutionReport report = std::move(campaign->reports.front());
        const rec::RunStats &stats = campaign->stats;

        // Canonical phases. The campaign interleaves them, so the
        // breakdown is reconstructed: transitions are the measured
        // context-switch time, attestation is the post-SFREE tail
        // (sePCR quote), and launch is the remaining non-compute time
        // (first SLAUNCH measurement stream + state init).
        report.phases.transition = stats.contextSwitchTime;
        const Duration tail = machine.now() - report.finishedAt;
        report.phases.attestation =
            report.quoted ? tail : Duration::zero();
        const Duration residual = report.total - report.phases.compute -
                                  stats.contextSwitchTime;
        report.phases.launch = std::max(Duration::zero(), residual);

        report.section(sea::Capability::preemptible)
            .addCount("preemptions", stats.completions.front().preemptions);
        report.section(sea::Capability::sePcr)
            .addCount("sepcr_slots", config.sePcrs);
        if (report.quoted) {
            report.section(sea::Capability::attestation)
                .addCost("sepcr_quote", report.phases.attestation);
        }
        return report;
    }
};

} // namespace

std::unique_ptr<Backend>
makeRecService()
{
    return std::make_unique<RecServiceBackend>();
}

} // namespace mintcb::backend
