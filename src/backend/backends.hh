/**
 * @file
 * The five standard TEE backends (one factory per family).
 *
 * | name        | SoK family        | modeled after                    |
 * |-------------|-------------------|----------------------------------|
 * | sea-oneshot | late launch       | SKINIT/SENTER sessions (Sec. 4)  |
 * | rec-service | scheduler TEE     | SLAUNCH recommended hw (Sec. 5)  |
 * | sgx         | process enclave   | Intel SGX ECALL/OCALL + EPC      |
 * | vm-tee      | VM-level TEE      | AMD SEV-SNP / Intel TDX          |
 * | trustzone   | world switch      | ARM TrustZone SMC (Amacher &     |
 * |             |                   | Schiavoni, Middleware'19)        |
 *
 * Cost parameters live as documented constants in each factory's .cc
 * file; DESIGN.md section 12 collects them with citations.
 */

#ifndef MINTCB_BACKEND_BACKENDS_HH
#define MINTCB_BACKEND_BACKENDS_HH

#include <memory>

#include "backend/backend.hh"

namespace mintcb::backend
{

/** Section 4's measured reality: suspend OS, SKINIT, run, resume, with
 *  every sibling core halted. Wraps sea::SeaDriver. */
std::unique_ptr<Backend> makeSeaOneshot();

/** Section 5/6's proposal: a one-request SLAUNCH campaign under a
 *  fresh recommended-hardware executive, run by the same engine as
 *  ExecutionService's native path (ExecutionService::runCampaign). */
std::unique_ptr<Backend> makeRecService();

/** SGX-style process enclave: ECREATE/EADD/EINIT launch, ECALL/OCALL
 *  transitions, EPC paging pressure, EREPORT-based attestation. */
std::unique_ptr<Backend> makeSgx();

/** SEV-SNP/TDX-style VM TEE: launch-digest measurement, VM exits,
 *  memory-encryption overhead, firmware attestation reports. */
std::unique_ptr<Backend> makeVmTee();

/** TrustZone-style world switch: TA session open/close and SMC
 *  round-trips; no remote attestation (fails closed on wantQuote). */
std::unique_ptr<Backend> makeTrustZone();

} // namespace mintcb::backend

#endif // MINTCB_BACKEND_BACKENDS_HH
