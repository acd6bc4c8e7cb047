/**
 * @file
 * ExecutionService tests: the multi-PAL work queue on the recommended
 * hardware -- determinism, starvation-freedom, TPM session reuse,
 * command pipelining, and the accounted round-entry fill in the
 * scheduler it drives.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/hex.hh"
#include "rec/scheduler.hh"
#include "sea/service.hh"
#include "sea/statestore.hh"
#include "verify/race.hh"

namespace mintcb::sea
{
namespace
{

using machine::Machine;
using machine::PlatformId;

Pal
servicePal(const std::string &name)
{
    return Pal::fromLogic(name, 4 * 1024,
                          [](PalContext &) { return okStatus(); });
}

/** A body that round-trips its input through sealed storage. */
SecureBody
sealingBody()
{
    return [](rec::PalHooks &hooks, const Bytes &input) -> Result<Bytes> {
        auto blob = hooks.seal(input);
        if (!blob)
            return blob.error();
        auto back = hooks.unseal(*blob);
        if (!back)
            return back.error();
        Bytes out = back.take();
        out.push_back(0xa5);
        return out;
    };
}

PalRequest
serviceRequest(const std::string &name, Duration compute,
               const Bytes &input = {})
{
    PalRequest req(servicePal(name), input);
    req.slicedCompute = compute;
    req.secureBody = sealingBody();
    return req;
}

/** Compute-only request: no sealed-storage round trip (a Broadcom
 *  unseal costs 900 ms, which would drown scheduling-latency tests). */
PalRequest
lightRequest(const std::string &name, Duration compute)
{
    PalRequest req(servicePal(name));
    req.slicedCompute = compute;
    return req;
}

TEST(ExecutionService, RunsQueuedPalsAndReturnsOutputs)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService svc(m);

    // Ride the happens-before checker on the full workload: every
    // cross-CPU page access must be ordered by SLAUNCH/SYIELD edges.
    verify::HbRaceDetector detector(m.cpuCount());
    detector.attach(m.memctrl());
    detector.attach(svc.executive());

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 5; ++i) {
        auto id = svc.submit(serviceRequest(
            "worker-" + std::to_string(i), Duration::millis(3),
            asciiBytes("payload-" + std::to_string(i))));
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
    }
    EXPECT_EQ(svc.queueDepth(), 5u);

    auto reports = svc.drain();
    ASSERT_TRUE(reports.ok());
    ASSERT_EQ(reports->size(), 5u);
    EXPECT_EQ(svc.queueDepth(), 0u);

    for (std::size_t i = 0; i < reports->size(); ++i) {
        const ExecutionReport &r = (*reports)[i];
        EXPECT_EQ(r.requestId, ids[i]);
        EXPECT_TRUE(r.status.ok()) << r.status.error().str();
        // sealingBody echoes the input plus a trailer byte.
        Bytes expected = asciiBytes("payload-" + std::to_string(i));
        expected.push_back(0xa5);
        EXPECT_EQ(r.output, expected);
        EXPECT_EQ(r.palMeasurement,
                  servicePal("worker-" + std::to_string(i))
                      .measurement());
        EXPECT_GT(r.launches, 1u); // 3 ms in 1 ms quanta: preempted
        EXPECT_GE(r.startedAt, r.submittedAt);
        EXPECT_GT(r.finishedAt, r.startedAt);
    }
    EXPECT_EQ(svc.metrics().completed, 5u);
    EXPECT_EQ(svc.metrics().failed, 0u);
    EXPECT_GT(svc.metrics().preemptions, 0u);
    EXPECT_TRUE(detector.races().empty()) << detector.str();
    EXPECT_GT(detector.accessesChecked(), 0u);
}

TEST(ExecutionService, ReportsAreByteIdenticalAcrossSameSeedRuns)
{
    auto encode_all = [](std::uint64_t seed) {
        Machine m = Machine::forPlatform(PlatformId::recTestbed, seed);
        ExecutionService svc(m);
        for (int i = 0; i < 4; ++i) {
            PalRequest req = serviceRequest(
                "det-" + std::to_string(i),
                Duration::millis(2 + i),
                asciiBytes("input-" + std::to_string(i)));
            req.priority = i % 2;
            req.wantQuote = (i == 2);
            EXPECT_TRUE(svc.submit(std::move(req)).ok());
        }
        auto reports = svc.drain();
        EXPECT_TRUE(reports.ok());
        std::vector<Bytes> wires;
        for (const ExecutionReport &r : *reports)
            wires.push_back(r.encode());
        return wires;
    };

    const auto first = encode_all(42);
    const auto second = encode_all(42);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], second[i]) << "report " << i << " diverged";
}

TEST(ExecutionService, AgedPriorityKeepsLowPriorityDeadline)
{
    // Six 100 ms high-priority PALs swamp the three PAL cores for
    // hundreds of milliseconds; the lone low-priority request still has
    // to meet a 150 ms deadline. Priority aging (one step per waited
    // round) gets it scheduled long before the high-priority crowd
    // finishes; strict priority would hold it past 300 ms.
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService svc(m);

    for (int i = 0; i < 6; ++i) {
        PalRequest req = lightRequest("noisy-" + std::to_string(i),
                                      Duration::millis(100));
        req.priority = 10;
        ASSERT_TRUE(svc.submit(std::move(req)).ok());
    }
    const TimePoint deadline = m.now() + Duration::millis(150);
    PalRequest meek = lightRequest("meek", Duration::millis(2));
    meek.priority = 0;
    meek.deadline = deadline;
    auto meek_id = svc.submit(std::move(meek));
    ASSERT_TRUE(meek_id.ok());

    auto reports = svc.drain();
    ASSERT_TRUE(reports.ok());
    const ExecutionReport &meek_report = reports->back();
    ASSERT_EQ(meek_report.requestId, *meek_id);
    EXPECT_TRUE(meek_report.status.ok());
    EXPECT_TRUE(meek_report.deadlineMet)
        << "finished at " << meek_report.finishedAt.sinceEpoch().str();
    EXPECT_EQ(svc.metrics().deadlinesMissed, 0u);
    // The noisy PALs really did run past the meek PAL's deadline, so
    // meeting it required preempting them.
    EXPECT_GT(reports->front().finishedAt, deadline);
}

TEST(ExecutionService, TransportSessionIsResumedAcrossDrains)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService svc(m);

    ASSERT_TRUE(svc.submit(serviceRequest("a", Duration::millis(1))).ok());
    ASSERT_TRUE(svc.drain().ok());
    ASSERT_TRUE(svc.submit(serviceRequest("b", Duration::millis(1))).ok());
    ASSERT_TRUE(svc.drain().ok());

    // One full RSA key exchange, then a cheap ticket resumption.
    EXPECT_EQ(svc.metrics().sessionsAccepted, 1u);
    EXPECT_EQ(svc.metrics().sessionsResumed, 1u);
}

TEST(ExecutionService, SessionReuseOffReRunsKeyExchange)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.reuseTransportSession = false;
    ExecutionService svc(m, config);

    ASSERT_TRUE(svc.submit(serviceRequest("a", Duration::millis(1))).ok());
    ASSERT_TRUE(svc.drain().ok());
    ASSERT_TRUE(svc.submit(serviceRequest("b", Duration::millis(1))).ok());
    ASSERT_TRUE(svc.drain().ok());

    EXPECT_EQ(svc.metrics().sessionsAccepted, 2u);
    EXPECT_EQ(svc.metrics().sessionsResumed, 0u);
}

TEST(ExecutionService, PipeliningCoalescesAuditTraffic)
{
    Machine pipelined_m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService pipelined(pipelined_m);
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(pipelined
                        .submit(serviceRequest(
                            "p" + std::to_string(i),
                            Duration::millis(1)))
                        .ok());
    }
    ASSERT_TRUE(pipelined.drain().ok());
    EXPECT_EQ(pipelined.metrics().auditCommands, 6u);
    EXPECT_EQ(pipelined.metrics().auditExchanges, 1u);
    EXPECT_DOUBLE_EQ(pipelined.metrics().coalescingRatio(), 6.0);

    Machine serial_m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.pipelineTpm = false;
    ExecutionService serial(serial_m, config);
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(serial
                        .submit(serviceRequest(
                            "s" + std::to_string(i),
                            Duration::millis(1)))
                        .ok());
    }
    ASSERT_TRUE(serial.drain().ok());
    EXPECT_EQ(serial.metrics().auditCommands, 6u);
    EXPECT_EQ(serial.metrics().auditExchanges, 6u);
    EXPECT_DOUBLE_EQ(serial.metrics().coalescingRatio(), 1.0);
}

TEST(ExecutionService, FailedAuditFlushDoesNotRequeueExecutedPals)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ServiceConfig config;
    config.auditPcr = 99; // out of range: every audit extend is rejected
    ExecutionService svc(m, config);

    ASSERT_TRUE(svc.submit(serviceRequest("once", Duration::millis(1),
                                          asciiBytes("in")))
                    .ok());
    auto reports = svc.drain();
    ASSERT_FALSE(reports.ok());

    // The PAL already executed; the failed flush must not leave it
    // queued for a duplicate run (secureBody side effects, sePCR
    // extends, double-counted metrics) on the next drain.
    EXPECT_EQ(svc.queueDepth(), 0u);
    EXPECT_EQ(svc.metrics().completed, 1u);
    auto again = svc.drain();
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->empty());
    EXPECT_EQ(svc.metrics().completed, 1u);
}

TEST(ExecutionService, AuditTrailLandsInTheConfiguredPcr)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService svc(m);
    const Bytes before = *m.tpm().pcrRead(15);

    ASSERT_TRUE(
        svc.submit(serviceRequest("audited", Duration::millis(1))).ok());
    ASSERT_TRUE(svc.drain().ok());
    EXPECT_NE(*m.tpm().pcrRead(15), before);
}

TEST(ExecutionService, QuoteOnRequestIsHonored)
{
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService svc(m);
    PalRequest req = serviceRequest("attested", Duration::millis(1));
    req.wantQuote = true;
    auto report = svc.runOne(std::move(req));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->quoted);
    EXPECT_FALSE(report->quote.signature.empty());
}

/** In-memory sealed-state home: enough to see which store a body got. */
class MapStateStore : public SealedStateStore
{
  public:
    Result<Bytes>
    loadSealedState(const std::string &name) override
    {
        auto it = values_.find(name);
        if (it == values_.end())
            return Error(Errc::notFound, name);
        return it->second;
    }
    Status
    storeSealedState(const std::string &name, const Bytes &sealed) override
    {
        values_[name] = sealed;
        return okStatus();
    }
    bool
    hasSealedState(const std::string &name) const override
    {
        return values_.count(name) != 0;
    }

  private:
    std::map<std::string, Bytes> values_;
};

TEST(ExecutionService, StateStoreReachesTheSecureBody)
{
    // PalRequest::stateStore is promised to every execution path; the
    // service's own campaign must hand it to the body through the
    // hooks, inline and on a shard's worker thread alike.
    for (std::uint32_t workers : {0u, 2u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        Machine m = Machine::forPlatform(PlatformId::recTestbed);
        ServiceConfig config;
        config.workers = workers;
        ExecutionService svc(m, config);
        MapStateStore store;

        PalRequest req(servicePal("stateful"), asciiBytes("v1"));
        req.slicedCompute = Duration::millis(1);
        req.stateStore = &store;
        req.secureBody = [&store](rec::PalHooks &hooks,
                                  const Bytes &input) -> Result<Bytes> {
            if (hooks.stateStore() != &store)
                return Error(Errc::failedPrecondition,
                             "body did not get the request's store");
            if (auto s = hooks.stateStore()->storeSealedState("slot",
                                                              input);
                !s.ok()) {
                return s.error();
            }
            return input;
        };
        auto report = svc.runOne(std::move(req));
        ASSERT_TRUE(report.ok());
        EXPECT_TRUE(report->status.ok()) << report->status.error().str();
        auto stored = store.loadSealedState("slot");
        ASSERT_TRUE(stored.ok());
        EXPECT_EQ(*stored, asciiBytes("v1"));
    }
}

/** Observer that submits a follow-up request from inside its
 *  onRequestDone callback -- the pattern that used to deadlock while
 *  drain() still held the claimed-queue state. */
class ResubmittingObserver : public ServiceObserver
{
  public:
    explicit ResubmittingObserver(ExecutionService &svc) : svc_(svc) {}

    void onDrainBegin(std::size_t) override {}
    void onDrainEnd(std::size_t) override {}
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}
    void onRequestDone(const ExecutionReport &report) override
    {
        if (resubmitted_)
            return;
        resubmitted_ = true;
        PalRequest followup(servicePal("followup"));
        followup.slicedCompute = Duration::millis(1);
        auto id = svc_.submit(std::move(followup));
        EXPECT_TRUE(id.ok());
        EXPECT_GT(*id, report.requestId);
    }

  private:
    ExecutionService &svc_;
    bool resubmitted_ = false;
};

TEST(ExecutionService, ObserverMaySubmitFromRequestDoneCallback)
{
    // Regression: drain() used to invoke observer callbacks while the
    // claimed batch still aliased the live queue state, so an observer
    // submitting from its callback re-entered the drain (or deadlocked
    // once the queue grew a lock). The claimed batch is now snapshotted
    // and released first: the callback's submit lands in the empty
    // queue and runs on the *next* drain.
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    ExecutionService svc(m);
    ResubmittingObserver obs(svc);
    svc.observers().add(&obs);

    ASSERT_TRUE(
        svc.submit(lightRequest("seedreq", Duration::millis(1))).ok());
    auto first = svc.drain();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->size(), 1u); // follow-up not folded into this drain
    EXPECT_EQ(svc.queueDepth(), 1u);

    auto second = svc.drain();
    ASSERT_TRUE(second.ok());
    ASSERT_EQ(second->size(), 1u);
    EXPECT_EQ(second->front().palName, "followup");
    EXPECT_EQ(svc.queueDepth(), 0u);
}

TEST(OsScheduler, RoundEntryGapIsAccountedAsLegacyWork)
{
    // Regression: entering a scheduling round used to syncAllCpus(),
    // teleporting lagging cores to the max clock without crediting the
    // skipped time as legacy work. With the accounted fill, a core that
    // starts 10 ms behind retires those 10 ms as legacy work.
    Machine m = Machine::forPlatform(PlatformId::recTestbed);
    rec::SecureExecutive exec(m, /*sepcr_count=*/4);
    m.cpu(0).advance(Duration::millis(10)); // CPU 0 is 10 ms ahead

    rec::OsScheduler sched(exec, Duration::millis(1));
    rec::PalProgram pal;
    pal.name = "filler-check";
    pal.totalCompute = Duration::millis(2);
    ASSERT_TRUE(sched.add(pal).ok());

    const std::uint64_t cpu1_before = m.cpu(1).legacyWorkDone();
    ASSERT_TRUE(sched.runAll().ok());
    const double cpu1_legacy_ns =
        static_cast<double>(m.cpu(1).legacyWorkDone() - cpu1_before) /
        m.spec().freqGhz;
    // CPU 1 had to cover (at least) the 10 ms entry gap.
    EXPECT_GE(cpu1_legacy_ns, Duration::millis(10).toNanos());
    // No unaccounted clock jumps: every core ends at the same instant.
    EXPECT_EQ(m.cpu(1).now(), m.cpu(0).now());
}

} // namespace
} // namespace mintcb::sea
