/**
 * @file
 * gw-session: a mintcb-gate Gateway with the daemon's defaults
 * (drainBatch 1, drain-on-idle, inline service) and one attested client
 * on one loopback connection in the same process (2 threads). The
 * client pipelines 32-request echo batches (64 B in, 200 us sliced
 * compute, no quote). An op is one request; latency is the runBatch
 * round trip. The request path does the work and the handshake none.
 *
 * The traced run also times the session handshake as a reference:
 * GatewayClient::connect of a returning client against the live
 * gateway, and alone the calls it is made of (TCP connect, attest,
 * decode + verify).
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness.hh"
#include "net/client.hh"
#include "net/gateway.hh"
#include "net/socket.hh"
#include "sea/service.hh"

using namespace mintcb;

namespace perfbench
{

namespace
{

constexpr std::size_t batchSize = 32;
constexpr std::size_t payloadBytes = 64;
constexpr int timeoutMillis = 30000;
constexpr int handshakeReps = 20;

/** Service + TPM observer on the gateway's machine: counts TPM commands
 *  always, stamps drain spans while tracing. Drains run on the reactor
 *  thread and attach to the op the caller thread has open. */
class GatewayObserver final : public sea::ServiceObserver,
                              public tpm::TpmCommandObserver
{
  public:
    void onDrainBegin(std::size_t) override { drainStart_ = nowNs(); }
    void
    onDrainEnd(std::size_t) override
    {
        Tracer &t = tracer();
        const std::uint32_t op_span = t.currentSpan.load();
        if (op_span != 0)
            t.add("sea.drain", drainStart_, nowNs(), op_span,
                  t.currentOp.load());
    }
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}
    void
    onCommand(const char *, TimePoint, TimePoint, TimePoint) override
    {
        tpmCommands.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> tpmCommands{0};

  private:
    std::int64_t drainStart_ = 0; // reactor thread only
};

/** A running gateway over its own machine and inline service. */
struct GatewayRig
{
    GatewayRig()
    {
        {
            Scope s("machine.build");
            machine = std::make_unique<machine::Machine>(
                machine::PlatformSpec::forPlatform(
                    machine::PlatformId::recTestbed),
                0);
        }
        service = std::make_unique<sea::ExecutionService>(*machine);
        service->setObserver(&observer);
        machine->tpm().setCommandObserver(&observer);
        registry.addEcho("echo");
        gateway = std::make_unique<net::Gateway>(*machine, *service,
                                                 registry);
        gateway->trustClientPal(net::AttestedIdentity::clientPal());
    }
    ~GatewayRig()
    {
        if (gateway)
            gateway->stop();
    }
    GatewayRig(const GatewayRig &) = delete;
    GatewayRig &operator=(const GatewayRig &) = delete;

    GatewayObserver observer;
    std::unique_ptr<machine::Machine> machine;
    std::unique_ptr<sea::ExecutionService> service;
    net::PalRegistry registry;
    std::unique_ptr<net::Gateway> gateway;
};

/** Counter snapshot for per-layer deltas. Read between ops, while the
 *  reactor is idle. */
struct Counters
{
    net::GatewayStats gw;
    sea::ServiceMetrics svc;
    std::uint64_t tpm = 0;

    static Counters
    of(GatewayRig &rig)
    {
        return {rig.gateway->stats(), rig.service->metrics(),
                rig.observer.tpmCommands.load()};
    }
};

/** Seed-derived payloads: the only thing the seed varies here. */
std::vector<Bytes>
payloadPool(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Bytes> pool;
    for (int i = 0; i < 256; ++i)
        pool.push_back(rng.bytes(payloadBytes));
    return pool;
}

net::WireRequest
echoRequest(std::uint64_t sequence, const Bytes &input)
{
    net::WireRequest r;
    r.sequence = sequence;
    r.palName = "echo";
    r.input = input;
    r.slicedComputeTicks = Duration::micros(200).ticks();
    return r;
}

/** Does @p report decode with an ok status and echo @p input? */
bool
echoed(const Bytes &report, const Bytes &input)
{
    auto summary = net::summarizeReport(report);
    return summary.ok() && summary->ok && summary->output == input;
}

/** Codec cost on the run's own traffic: encode + decode of each submit
 *  and each report, per request, in microseconds. */
double
codecUsPerRequest(const std::vector<net::WireRequest> &requests,
                  const std::vector<net::ReportPayload> &reports)
{
    if (requests.empty())
        return 0.0;
    const double ms = referenceMs(20, [&] {
        for (const net::WireRequest &r : requests)
            net::decodeSubmit(net::encodeSubmit(r));
        for (const net::ReportPayload &p : reports)
            net::decodeReport(net::encodeReport(p));
    });
    return ms * 1e3 / static_cast<double>(requests.size());
}

/** Per-layer values from gateway, service and TPM counters. */
void
gatewayLayers(const Counters &a, const Counters &b, const Phase &traced,
              std::map<std::string, double> &out)
{
    const double requests =
        static_cast<double>(std::max<std::uint64_t>(1, traced.ops));
    const double drains = static_cast<double>(b.gw.drains - a.gw.drains);
    out["net.frames_per_request"] =
        static_cast<double>(b.gw.framesRx - a.gw.framesRx + b.gw.framesTx -
                            a.gw.framesTx) /
        requests;
    out["net.bytes_per_request"] =
        static_cast<double>(b.gw.bytesRx - a.gw.bytesRx + b.gw.bytesTx -
                            a.gw.bytesTx) /
        requests;
    out["net.busy_per_request"] =
        static_cast<double>(b.gw.busyQueueFull - a.gw.busyQueueFull +
                            b.gw.busyRateLimited - a.gw.busyRateLimited) /
        requests;
    out["net.drains_per_batch"] =
        drains * static_cast<double>(batchSize) / requests;
    out["sea.drain_ms"] = tracer().meanMs("sea.drain");
    out["sea.requests_per_drain"] =
        drains > 0 ? static_cast<double>(b.svc.completed - a.svc.completed) /
                         drains
                   : 0.0;
    const double exchanges =
        static_cast<double>(b.svc.auditExchanges - a.svc.auditExchanges);
    out["sea.audit_coalescing"] =
        exchanges > 0
            ? static_cast<double>(b.svc.auditCommands - a.svc.auditCommands) /
                  exchanges
            : 0.0;
    out["tpm.commands_per_op"] =
        static_cast<double>(b.tpm - a.tpm) / requests;
    out["sea.sim_busy_ms_per_op"] =
        (b.svc.busy - a.svc.busy).toMillis() / requests;
    out["machine.build_ms"] =
        tracer().sumMs("machine.build", false) / setupRepeats;
}

// ---------------------------------------------------------------- session

class GwSession final : public Workload
{
  public:
    explicit GwSession(const Options &opt)
        : inject_(opt.injectUnknownPal), payloads_(payloadPool(opt.seed)),
          returning_(returningConfig()),
          gatewayId_(net::GatewayConfig{}.subject,
                     net::AttestedIdentity::gatewayPal(),
                     net::GatewayConfig{}.identitySeed)
    {
        verifier_.trustPal(net::AttestedIdentity::gatewayPal());
    }

    void
    tearDown() override
    {
        if (client_)
            client_->bye();
        client_.reset();
        rig_.reset();
    }

    bool
    setUp() override
    {
        rig_ = std::make_unique<GatewayRig>();
        if (auto s = rig_->gateway->start(); !s.ok())
            return fail("gateway start", s);
        net::ClientConfig config;
        config.identitySeed = 100;
        {
            Scope s("machine.build");
            client_ = std::make_unique<net::GatewayClient>(config);
        }
        if (auto s = connect(); !s.ok())
            return fail("connect", s);
        settingUp_ = true;
        Phase first;
        Window w(first, 0);
        const StepResult r = step(w);
        settingUp_ = false;
        if (r.completed != batchSize)
            return fail("first batch", okStatus());
        return true;
    }

    StepResult
    step(Window &w) override
    {
        ++batches_;
        std::vector<net::WireRequest> batch;
        batch.reserve(batchSize);
        for (std::size_t k = 0; k < batchSize; ++k) {
            batch.push_back(echoRequest(
                nextSeq_, payloads_[nextSeq_ % payloads_.size()]));
            ++nextSeq_;
        }
        if (inject_ && !settingUp_ && batches_ % 4 == 0)
            batch[batchSize / 2].palName = "no-such-pal";

        StepResult r;
        r.attempted = batchSize;
        w.open();
        auto reports = client_->runBatch(batch);
        w.close();
        r.latencyMs = w.lastMs();
        if (!reports.ok() || reports->size() != batchSize) {
            // Refused (e.g. an unknown PAL) or broken: the gateway
            // closes the connection, so count the batch and reconnect.
            // A failed reconnect fails (and counts) the next batch.
            r.failed = batchSize;
            client_->close();
            (void)connect();
            return r;
        }
        for (std::size_t k = 0; k < batchSize; ++k) {
            if ((*reports)[k].sequence == batch[k].sequence &&
                echoed((*reports)[k].report, batch[k].input)) {
                ++r.completed;
            } else {
                ++r.failed;
                r.outputsCorrect = false;
            }
        }
        lastBatch_ = std::move(batch);
        lastReports_ = reports.take();
        return r;
    }

    void beginTraced() override { before_ = Counters::of(*rig_); }

    void
    layers(const Phase &traced, std::map<std::string, double> &out) override
    {
        const Counters after = Counters::of(*rig_);
        gatewayLayers(before_, after, traced, out);
        const double op_ms = tracer().sumMs("op");
        out["net.drain_share"] =
            op_ms > 0 ? tracer().sumMs("sea.drain") / op_ms : 0.0;
        out["net.codec_us_per_request"] =
            codecUsPerRequest(lastBatch_, lastReports_);
        handshakeLayers(out);
    }

    bool
    finish(std::vector<std::string> &notes) override
    {
        if (layerError_.empty())
            return true;
        notes.push_back("gw-session: " + layerError_);
        return false;
    }

  private:
    static net::ClientConfig
    returningConfig()
    {
        net::ClientConfig config;
        config.identitySeed = 200;
        return config;
    }

    /**
     * Reference: GatewayClient::connect (then bye) of a returning
     * client against the live gateway, and the calls a handshake is
     * made of, each timed alone: TcpStream::connectLoopback,
     * AttestedIdentity::attest, and Attestation::decode +
     * Verifier::verify of the gateway's attestation (an identity built
     * like the gateway's). Both sides attest and verify once per
     * handshake, and the gateway's share runs inside the client's
     * waits, so unexplained = connect - 2 x attest - 2 x verify - TCP.
     * A failed call fails the run (finish()) and leaves these layers
     * unmeasured.
     */
    void
    handshakeLayers(std::map<std::string, double> &out)
    {
        const std::uint16_t port = rig_->gateway->port();
        auto check = [&](const auto &result, const char *what) {
            if (!result.ok() && layerError_.empty())
                layerError_ = std::string("reference ") + what + ": " +
                              result.error().str();
        };
        const double connect_ms = referenceMs(handshakeReps, [&] {
            check(returning_.connect(port), "connect");
            returning_.bye();
        });
        const double tcp_ms = referenceMs(handshakeReps, [&] {
            check(net::TcpStream::connectLoopback(port, timeoutMillis),
                  "TCP connect");
        });
        const Bytes nonce(net::handshakeNonceBytes, 0x6e);
        const double attest_ms = referenceMs(handshakeReps, [&] {
            check(returning_.identity().attest(nonce), "attest");
        });
        auto theirs = gatewayId_.attest(nonce);
        check(theirs, "gateway attest");
        if (!theirs)
            return;
        const Bytes wire = theirs->encode();
        const double verify_ms = referenceMs(handshakeReps, [&] {
            auto decoded = sea::Attestation::decode(wire);
            check(decoded, "decode");
            if (decoded)
                check(verifier_.verify(*decoded, nonce), "verify");
        });
        if (!layerError_.empty())
            return;
        out["net.connect_ms"] = connect_ms;
        out["net.tcp_connect_ms"] = tcp_ms;
        out["sea.attest_ms"] = attest_ms;
        out["sea.verify_ms"] = verify_ms;
        out["net.handshake_unexplained_ms"] =
            connect_ms - 2 * attest_ms - 2 * verify_ms - tcp_ms;
    }

    Status
    connect()
    {
        Scope s("net.connect");
        return client_->connect(rig_->gateway->port());
    }

    bool
    fail(const char *what, const Status &s)
    {
        std::cerr << "gw-session: " << what << ": "
                  << (s.ok() ? "failed" : s.error().str()) << "\n";
        return false;
    }

    bool settingUp_ = false;

    bool inject_;
    std::vector<Bytes> payloads_;
    /** Returning client and an identity built like the gateway's, for
     *  the reference handshakes; built once, before any timing, so
     *  priming caches their keys. */
    net::GatewayClient returning_;
    net::AttestedIdentity gatewayId_;
    sea::Verifier verifier_;
    std::string layerError_;
    std::unique_ptr<GatewayRig> rig_;
    std::unique_ptr<net::GatewayClient> client_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t batches_ = 0;
    Counters before_;
    std::vector<net::WireRequest> lastBatch_;
    std::vector<net::ReportPayload> lastReports_;
};

} // namespace

std::unique_ptr<Workload>
makeGwSession(const Options &opt)
{
    return std::make_unique<GwSession>(opt);
}

} // namespace perfbench
