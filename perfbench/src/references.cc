/**
 * @file
 * Reference timings every traced run measures in-process, and the
 * assembly of the per-layer metric set.
 *
 * A reference times one public call alone, on inputs shaped like the
 * workloads' own, so a per-layer number that moves can be traced to the
 * call that moved it: one RSA-CRT sign, one HMAC over 16 KiB, one TPM
 * quote, one Privacy-CA certificate, one rec-service Backend::run of
 * the gw-session request shape, one ExecutionReport::encode, and the
 * sealed-store commit path (store_reference.cc).
 */

#include <cmath>
#include <iostream>
#include <string>

#include "backend/registry.hh"
#include "crypto/hmac.hh"
#include "crypto/keycache.hh"
#include "crypto/rsa.hh"
#include "harness.hh"
#include "machine/machine.hh"
#include "net/registry.hh"
#include "sea/attestation.hh"

using namespace mintcb;

namespace perfbench
{

namespace
{

constexpr int referenceReps = 20;

/** The echo request every gateway workload sends: 64 B in, 200 us of
 *  sliced compute. */
sea::PalRequest
echoShape()
{
    net::PalRegistry registry;
    registry.addEcho("echo");
    net::WireRequest wire;
    wire.sequence = 1;
    wire.palName = "echo";
    wire.input.assign(64, 0x5a);
    wire.slicedComputeTicks = Duration::micros(200).ticks();
    return registry.build(wire).take();
}

void
sharedReferences(std::map<std::string, double> &out)
{
    const crypto::RsaPrivateKey &ca =
        crypto::cachedKey("privacy-ca", crypto::tpmKeyBits);
    const Bytes message(256, 0x42);
    out["crypto.rsa_sign_ms"] = referenceMs(referenceReps, [&] {
        crypto::rsaSignSha1(ca, message);
    });

    const Bytes key(32, 0x11);
    const Bytes kib(16 * 1024, 0x33);
    out["crypto.hmac_us_per_kib"] =
        referenceMs(referenceReps,
                    [&] { crypto::hmacSha256(key, kib); }) *
        1e3 / 16.0;

    machine::Machine m =
        machine::Machine::forPlatform(machine::PlatformId::recTestbed);
    const Bytes nonce(20, 0x07);
    out["tpm.quote_ms"] = referenceMs(referenceReps, [&] {
        m.tpm().quote(nonce, {17});
    });
    out["sea.ca_issue_ms"] = referenceMs(referenceReps, [&] {
        sea::PrivacyCa::instance().issue(m.tpm().aikPublic(), "perfbench");
    });

    const backend::Backend *rec =
        backend::BackendRegistry::standard().find(
            backend::defaultBackendName);
    const sea::PalRequest shape = echoShape();
    sea::ExecutionReport report;
    out["backend.run_us"] = referenceMs(referenceReps, [&] {
                                auto r = rec->run(m, shape, 1);
                                if (r.ok())
                                    report = r.take();
                            }) *
                            1e3;
    out["sea.report_encode_us"] =
        referenceMs(referenceReps, [&] { report.encode(); }) * 1e3;
}

} // namespace

bool
primeReferences()
{
    std::map<std::string, double> unused;
    std::vector<std::string> notes;
    sharedReferences(unused);
    const bool ok = storeReference(1, unused, notes);
    for (const std::string &n : notes)
        std::cerr << n << "\n";
    return ok;
}

void
perLayer(Report &report, std::map<std::string, double> values,
         std::uint64_t seed, std::size_t keys_before)
{
    sharedReferences(values);
    if (!storeReference(seed, values, report.notes))
        report.correct = false;
    // After the references, so a key they generate shows too.
    values["crypto.keys_generated"] =
        static_cast<double>(keyCacheFiles() - keys_before);
    std::string absent;
    for (const auto &[name, unit] : layerMetrics()) {
        auto it = values.find(name);
        if (it == values.end()) {
            absent += std::string(" ") + name;
            report.metric(name, 0.0, unit);
            continue;
        }
        if (!std::isfinite(it->second)) {
            report.notes.push_back(std::string("layer ") + name +
                                   " is not a finite number");
            report.correct = false;
        }
        report.metric(name, it->second, unit);
    }
    report.notes.push_back("layers not measured by this workload (print "
                           "as 0):" +
                           absent);
}

} // namespace perfbench
