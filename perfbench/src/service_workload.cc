/**
 * @file
 * svc-quoted: an in-process ExecutionService on recTestbed with 2
 * worker threads and 8 shards (3 threads with the caller). The caller
 * submits 64 echo requests with wantQuote and affinity = sequence, so
 * each shard gets 8 per drain, and drains. An op is one request;
 * latency is the drain() call. The work is the sharded drain, the shard
 * bring-up (8 machines, TPMs and transport sessions, paid in set-up by
 * the cold first drain) and one TPM quote per report; the net layer
 * does none of it.
 */

#include <algorithm>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/hex.hh"
#include "common/rng.hh"
#include "crypto/sha256.hh"
#include "harness.hh"
#include "net/registry.hh"
#include "crypto/sha1.hh"
#include "sea/service.hh"

using namespace mintcb;

namespace perfbench
{

namespace
{

constexpr std::size_t drainSize = 64;
constexpr std::uint32_t workers = 2;
constexpr std::uint32_t shards = 8;

/** Observer: keeps each shard's AIK (for quote checks) and counts TPM
 *  commands always; stamps drain, shard and bring-up spans while
 *  tracing. Shard begin/end run on worker threads. */
class ServiceProbe final : public sea::ServiceObserver,
                           public tpm::TpmCommandObserver
{
  public:
    void
    onDrainBegin(std::size_t) override
    {
        drainStart_ = nowNs();
        lastMark_ = drainStart_;
        std::lock_guard<std::mutex> lock(mu_);
        lastShardEnd_ = 0;
    }
    void
    onDrainEnd(std::size_t) override
    {
        Tracer &t = tracer();
        if (!t.enabled())
            return;
        const std::int64_t end = nowNs();
        const std::uint32_t parent = t.currentSpan.load();
        t.add("sea.drain", drainStart_, end, parent, t.currentOp.load());
        std::lock_guard<std::mutex> lock(mu_);
        if (lastShardEnd_ != 0)
            t.add("sea.merge", lastShardEnd_, end, parent,
                  t.currentOp.load());
    }
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}

    void
    onShardCreated(std::uint32_t shard, machine::Machine &machine,
                   rec::SecureExecutive &) override
    {
        machine.tpm().setCommandObserver(this);
        {
            std::lock_guard<std::mutex> lock(mu_);
            aiks_[shard] = machine.tpm().aikPublic();
        }
        const std::int64_t now = nowNs();
        tracer().add("machine.shard_build", lastMark_, now,
                     tracer().currentSpan.load(), tracer().currentOp.load());
        lastMark_ = now;
    }
    void
    onShardBegin(std::uint32_t shard, std::size_t) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        shardStart_[shard] = nowNs();
    }
    void
    onShardEnd(std::uint32_t shard, std::size_t) override
    {
        const std::int64_t end = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        tracer().add("sea.shard", shardStart_[shard], end,
                     tracer().currentSpan.load(), tracer().currentOp.load());
        lastShardEnd_ = std::max(lastShardEnd_, end);
    }
    void
    onCommand(const char *, TimePoint, TimePoint, TimePoint) override
    {
        tpmCommands.fetch_add(1, std::memory_order_relaxed);
    }

    crypto::RsaPublicKey
    aik(std::uint32_t shard) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return aiks_[shard];
    }

    std::atomic<std::uint64_t> tpmCommands{0};

  private:
    std::int64_t drainStart_ = 0; // draining thread only
    std::int64_t lastMark_ = 0;   // draining thread only
    mutable std::mutex mu_;
    crypto::RsaPublicKey aiks_[shards];    // guarded by mu_
    std::int64_t shardStart_[shards] = {}; // guarded by mu_
    std::int64_t lastShardEnd_ = 0;        // guarded by mu_
};

struct ServiceRig
{
    ServiceRig()
    {
        {
            Scope s("machine.build");
            machine = std::make_unique<machine::Machine>(
                machine::PlatformSpec::forPlatform(
                    machine::PlatformId::recTestbed),
                0);
        }
        sea::ServiceConfig config;
        config.workers = workers;
        config.shards = shards;
        service = std::make_unique<sea::ExecutionService>(*machine, config);
        service->setObserver(&probe);
        machine->tpm().setCommandObserver(&probe);
    }

    ServiceProbe probe;
    std::unique_ptr<machine::Machine> machine;
    std::unique_ptr<sea::ExecutionService> service;
};

class SvcQuoted final : public Workload
{
  public:
    explicit SvcQuoted(const Options &opt) : rng_(opt.seed)
    {
        registry_.addEcho("echo");
        fixedInputs_.assign(drainSize, Bytes(64, 0x5a));
        net::WireRequest wire;
        wire.palName = "echo";
        launchValue_ = extend(Bytes(crypto::sha1DigestSize, 0x00),
                              registry_.build(wire)->pal.measurement());
    }

    void tearDown() override { rig_.reset(); }

    bool
    setUp() override
    {
        rig_ = std::make_unique<ServiceRig>();
        nextSeq_ = 1;
        // The cold first drain brings up the 8 shards. Its inputs are
        // fixed, so its report bytes and simulated busy time are the
        // same on every run and every seed.
        // The first drain creates the worker pool; its threads inherit
        // CPUs 1-2, then the caller returns to its own (CPU 3).
        const double rss0 = currentRssMb();
        const std::int64_t t0 = nowNs();
        std::vector<sea::ExecutionReport> reports;
        pinThisThread({callerCpu - 2, callerCpu - 1});
        const bool drained = drain(fixedInputs_, reports);
        pinThisThread({callerCpu});
        if (!drained) {
            std::cerr << "svc-quoted: cold drain failed\n";
            return false;
        }
        coldDrainMs_.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        rssPerShardMb_.push_back((currentRssMb() - rss0) / shards);
        keyExchanges_ = rig_->service->metrics().sessionsAccepted;

        Bytes wire;
        for (const sea::ExecutionReport &r : reports) {
            const Bytes e = r.encode();
            wire.insert(wire.end(), e.begin(), e.end());
        }
        const std::string digest =
            toHex(crypto::Sha256::digestBytes(wire)).substr(0, 32);
        const double sim_ms = rig_->service->metrics().busy.toMillis();
        if (coldDigest_.empty()) {
            coldDigest_ = digest;
            coldSimMs_ = sim_ms;
        } else if (digest != coldDigest_ || sim_ms != coldSimMs_) {
            deterministic_ = false;
        }
        if (checkAll(reports, fixedInputs_) != drainSize) {
            std::cerr << "svc-quoted: cold drain reports failed checks\n";
            return false;
        }
        return true;
    }

    StepResult
    step(Window &w) override
    {
        std::vector<Bytes> inputs;
        inputs.reserve(drainSize);
        for (std::size_t k = 0; k < drainSize; ++k)
            inputs.push_back(rng_.bytes(64));

        StepResult r;
        r.attempted = drainSize;
        std::vector<sea::ExecutionReport> reports;
        w.open();
        const bool ok = drain(inputs, reports, &r.latencyMs);
        w.close();
        if (!ok) {
            r.failed = drainSize;
            return r;
        }
        r.completed = checkAll(reports, inputs);
        r.failed = drainSize - r.completed;
        r.outputsCorrect = r.failed == 0;
        return r;
    }

    void
    beginTraced() override
    {
        before_ = rig_->service->metrics();
        tpmBefore_ = rig_->probe.tpmCommands.load();
    }

    void
    layers(const Phase &traced, std::map<std::string, double> &out) override
    {
        const Tracer &t = tracer();
        const sea::ServiceMetrics &after = rig_->service->metrics();
        const double requests =
            static_cast<double>(std::max<std::uint64_t>(1, traced.ops));
        const double drains = static_cast<double>(after.drains - before_.drains);
        out["sea.drain_ms"] = t.meanMs("sea.drain");
        out["sea.requests_per_drain"] =
            drains > 0 ? static_cast<double>(after.completed -
                                             before_.completed) /
                             drains
                       : 0.0;
        out["sea.shard_busy_ms"] = t.meanMs("sea.shard");
        out["sea.merge_ms"] = t.meanMs("sea.merge");
        const double drain_total = t.sumMs("sea.drain");
        out["sea.parallel_efficiency"] =
            drain_total > 0 ? t.sumMs("sea.shard") / (workers * drain_total)
                            : 0.0;
        out["sea.steals"] =
            drains > 0 ? static_cast<double>(after.steals - before_.steals) /
                             drains
                       : 0.0;
        out["sea.sim_busy_ms_per_op"] =
            (after.busy - before_.busy).toMillis() / requests;
        out["sea.cold_drain_ms"] = median(coldDrainMs_);
        out["sea.transport_key_exchanges"] =
            static_cast<double>(keyExchanges_);
        out["machine.build_ms"] =
            t.sumMs("machine.build", false) / setupRepeats;
        out["machine.shard_build_ms"] =
            t.meanMs("machine.shard_build", false);
        out["machine.rss_mb_per_shard"] = median(rssPerShardMb_);
        out["tpm.commands_per_op"] =
            static_cast<double>(rig_->probe.tpmCommands.load() -
                                tpmBefore_) /
            requests;
    }

    bool
    finish(std::vector<std::string> &notes) override
    {
        std::ostringstream out;
        out << "svc-quoted cold drain: report digest " << coldDigest_
            << ", simulated busy " << coldSimMs_ << " ms"
            << (deterministic_ ? " (identical across set-ups)"
                               : " (DIFFERS across set-ups)");
        notes.push_back(out.str());
        return deterministic_;
    }

  private:
    /** Submit one request per input (affinity = sequence) and drain. */
    bool
    drain(const std::vector<Bytes> &inputs,
          std::vector<sea::ExecutionReport> &reports,
          double *drain_ms = nullptr)
    {
        for (const Bytes &input : inputs) {
            net::WireRequest wire;
            wire.sequence = nextSeq_;
            wire.affinity = nextSeq_;
            ++nextSeq_;
            wire.palName = "echo";
            wire.input = input;
            wire.wantQuote = true;
            wire.slicedComputeTicks = Duration::micros(200).ticks();
            auto request = registry_.build(wire);
            if (!request || !rig_->service->submit(request.take()))
                return false;
        }
        const std::int64_t t0 = nowNs();
        auto out = rig_->service->drain();
        if (drain_ms)
            *drain_ms = static_cast<double>(nowNs() - t0) / 1e6;
        if (!out || out->size() != inputs.size())
            return false;
        reports = out.take();
        return true;
    }

    /**
     * Reports that are ok, echo their input and carry a quote that
     * verifies under the executing shard's AIK and whose sePCR holds
     * the echo PAL's launch chain: measurement, then SHA-1 of the input
     * (onStart), then SHA-1 of the output (onFinish).
     */
    std::size_t
    checkAll(const std::vector<sea::ExecutionReport> &reports,
             const std::vector<Bytes> &inputs) const
    {
        std::size_t good = 0;
        for (std::size_t k = 0; k < reports.size(); ++k) {
            const sea::ExecutionReport &r = reports[k];
            if (!r.status.ok() || r.output != inputs[k] || !r.quoted ||
                r.shard >= shards || r.quote.values.size() != 1 ||
                r.quote.selection.size() != 1 ||
                r.quote.selection[0] < tpm::pcrCount)
                continue;
            const Bytes digest = crypto::Sha1::digestBytes(inputs[k]);
            const Bytes expected =
                extend(extend(launchValue_, digest), digest);
            if (r.quote.values[0] == expected &&
                tpm::verifyQuote(rig_->probe.aik(r.shard), r.quote,
                                 r.quote.nonce)
                    .ok())
                ++good;
        }
        return good;
    }

    /** PCR extend: SHA-1(value || digest). */
    static Bytes
    extend(const Bytes &value, const Bytes &digest)
    {
        Bytes buf = value;
        buf.insert(buf.end(), digest.begin(), digest.end());
        return crypto::Sha1::digestBytes(buf);
    }

    Rng rng_;
    net::PalRegistry registry_;
    Bytes launchValue_; //!< sePCR after the echo PAL's measurement
    std::vector<Bytes> fixedInputs_;
    std::unique_ptr<ServiceRig> rig_;
    std::uint64_t nextSeq_ = 1;
    std::vector<double> coldDrainMs_;
    std::vector<double> rssPerShardMb_;
    std::uint64_t keyExchanges_ = 0;
    std::string coldDigest_;
    double coldSimMs_ = 0.0;
    bool deterministic_ = true;
    sea::ServiceMetrics before_;
    std::uint64_t tpmBefore_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSvcQuoted(const Options &opt)
{
    return std::make_unique<SvcQuoted>(opt);
}

} // namespace perfbench
