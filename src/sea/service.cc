/**
 * @file
 * Multi-PAL execution service implementation.
 *
 * A drain is one scheduling campaign (runCampaign): every claimed
 * PalRequest becomes a rec::PalProgram, an OsScheduler multiplexes them
 * over the PAL-eligible cores in preemption-timer quanta (legacy work
 * filling every idle cycle), and the completion hook turns each
 * PalCompletion back into the caller's ExecutionReport. The rec-service
 * registry backend runs the same function for a single request.
 * Afterwards the audit trail --
 * one TPM_Extend per report digest -- flows through the secure
 * transport session, batched into a single exchange when pipelining is
 * on.
 *
 * With config.workers > 0 the same engine (runBatch + flushAudit) runs
 * once per *shard*: requests partition by affinity onto config.shards
 * independent machines, a work-stealing WorkerPool executes the shard
 * campaigns on real OS threads, and the merge sequencer below
 * (drainSharded) commits reports in submit order, replays transport
 * milestones in shard order, and reconciles the shard clocks onto the
 * front machine's timeline. Nothing a worker thread computes depends on
 * which worker ran it or when, which is the whole determinism argument
 * (DESIGN.md section 10).
 */

#include "sea/service.hh"

#include <algorithm>
#include <cstdio>

#include "backend/registry.hh"
#include "crypto/sha1.hh"
#include "sea/workerpool.hh"

namespace mintcb::sea
{

namespace
{

/** Requests on these backend names run in the service's own scheduler
 *  campaign; every other registered name dispatches to the registry. */
bool
isNativeBackend(const std::string &name)
{
    return name.empty() || name == backend::defaultBackendName;
}

} // namespace

/** One shard of the sharded engine: an independent simulated machine
 *  (seed derived from the front machine's master seed), its secure
 *  executive, and a resumable transport session -- all persistent
 *  across drains so per-shard session resumption keeps paying off. */
struct ExecutionService::Shard
{
    std::uint32_t id;
    std::unique_ptr<machine::Machine> machine;
    rec::SecureExecutive exec;
    tpm::TpmTransportServer server;
    Bytes sessionKey;
    bool sessionLive = false;

    Shard(std::uint32_t id_, const machine::PlatformSpec &spec,
          std::uint64_t master_seed, std::size_t sepcrs)
        : id(id_),
          machine(machine::Machine::forShard(spec, master_seed, id_)),
          exec(*machine, sepcrs), server(machine->tpm())
    {
    }
};

ExecutionService::ExecutionService(machine::Machine &machine,
                                   ServiceConfig config)
    : machine_(machine), config_(config),
      exec_(machine, config.sePcrs), server_(machine.tpm())
{
}

// Out of line so Shard and WorkerPool are complete; members destroy in
// reverse declaration order, so the pool joins its threads before the
// shards they reference go away.
ExecutionService::~ExecutionService() = default;

std::uint32_t
ExecutionService::shardOf(std::uint64_t affinity_key,
                          std::uint32_t shard_count)
{
    if (shard_count == 0)
        return 0;
    return static_cast<std::uint32_t>(affinity_key % shard_count);
}

std::uint64_t
ExecutionService::affinityOf(const PalRequest &request)
{
    if (request.affinity != 0)
        return request.affinity;
    // FNV-1a over the PAL name: same sealed identity -> same shard.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : request.pal.name()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

ExecutionService::PoolStats
ExecutionService::poolStats() const
{
    PoolStats out;
    if (pool_) {
        const WorkerPool::Stats s = pool_->stats();
        out.executed = s.executed;
        out.steals = s.steals;
        out.discarded = s.discarded;
    }
    return out;
}

const backend::BackendRegistry &
ExecutionService::registry() const
{
    return config_.backends != nullptr
               ? *config_.backends
               : backend::BackendRegistry::standard();
}

Status
ExecutionService::admissible(const PalRequest &request) const
{
    return registry().admissible(request);
}

Result<std::uint64_t>
ExecutionService::submit(PalRequest request)
{
    if (request.pal.name().empty())
        return Error(Errc::invalidArgument, "PAL must be named");
    if (request.dataPages == 0)
        return Error(Errc::invalidArgument,
                     "a PAL needs at least one data page");
    if (auto s = admissible(request); !s.ok()) {
        std::lock_guard<std::mutex> lock(queueMutex_);
        ++metrics_.backendRejected;
        return s.error();
    }

    const std::string pal_name = request.pal.name();
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        id = nextId_++;
        queue_.push_back(Pending{std::move(request), id, machine_.now()});
        ++metrics_.submitted;
        metrics_.maxQueueDepth =
            std::max(metrics_.maxQueueDepth, queue_.size());
    }
    // Notify outside the lock: the observer may reenter submit().
    observers_.notify(&ServiceObserver::onSubmit, id, pal_name);
    return id;
}

Result<std::vector<ExecutionReport>>
ExecutionService::drain()
{
    std::vector<Pending> batch;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (queue_.empty())
            return std::vector<ExecutionReport>{};
        // Claim the whole batch up front: once the PALs start
        // executing, a late failure (audit flush, scheduler error) must
        // surface as the drain's error without leaving the requests
        // queued -- re-running them would duplicate secureBody side
        // effects and sePCR extends.
        batch = std::move(queue_);
        queue_.clear();
    }
    // The claimed batch is snapshotted and the queue lock released
    // before any callback runs: an observer that submits from its
    // callback lands in the (now empty) queue for the next drain
    // instead of deadlocking on the lock or re-entering this batch.
    ++metrics_.drains;
    observers_.notify(&ServiceObserver::onDrainBegin, batch.size());
    if (config_.workers > 0)
        return drainSharded(std::move(batch));
    return drainInline(std::move(batch));
}

Result<ExecutionService::BatchOutcome>
ExecutionService::runBatch(const EngineRefs &refs,
                           const std::vector<Pending> &batch,
                           std::uint32_t shard_id)
{
    BatchOutcome out;
    out.reports.resize(batch.size());

    // Registry-routed requests (sgx, vm-tee, ...) run first, in submit
    // order, on the engine's machine -- the partition depends only on
    // each request's backend name, so the sharded merge stays
    // deterministic. The remaining (native) requests then run as one
    // scheduler campaign.
    std::vector<std::size_t> native;
    std::vector<const Pending *> native_requests;
    native.reserve(batch.size());
    native_requests.reserve(batch.size());
    const backend::BackendRegistry &reg = registry();
    // First PAL-eligible core (cores below legacyCpus stay legacy).
    const CpuId backend_cpu =
        config_.legacyCpus < refs.machine.cpuCount()
            ? static_cast<CpuId>(config_.legacyCpus)
            : 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Pending &p = batch[i];
        if (isNativeBackend(p.request.backend)) {
            native.push_back(i);
            native_requests.push_back(&p);
            continue;
        }
        const backend::Backend *b = reg.find(p.request.backend);
        if (b == nullptr) {
            // submit() validated the name; a vanished backend means
            // the registry was swapped out underneath us.
            return Error(Errc::notFound, "backend '" +
                                             p.request.backend +
                                             "' no longer registered");
        }
        auto routed = b->run(refs.machine, p.request, backend_cpu);
        if (!routed)
            return routed.error();
        ExecutionReport &r = out.reports[i];
        r = routed.take();
        r.requestId = p.id;
        r.submittedAt = p.submittedAt;
        r.queueWait = r.startedAt - r.submittedAt;
        r.shard = shard_id;
        ++out.backendRouted;
    }

    auto campaign =
        runCampaign(refs.exec, config_, native_requests, shard_id);
    if (!campaign)
        return campaign.error();
    for (std::size_t n = 0; n < native.size(); ++n)
        out.reports[native[n]] = std::move(campaign->reports[n]);
    out.preemptions = campaign->stats.preemptions;
    out.slaunchRetries = campaign->stats.slaunchRetries;
    out.legacyWorkUnits = campaign->stats.legacyWorkUnits;
    return out;
}

Result<ExecutionService::Campaign>
ExecutionService::runCampaign(rec::SecureExecutive &exec,
                              const ServiceConfig &config,
                              const std::vector<const Pending *> &requests,
                              std::uint32_t shard_id)
{
    /** Per-request state the scheduler callbacks fill in. Sized once up
     *  front so the captured pointers stay stable. */
    struct Slot
    {
        TimePoint startedAt;
        bool started = false;
        Bytes output;
        Duration compute;
    };
    std::vector<Slot> slots(requests.size());
    Campaign out;
    out.reports.resize(requests.size());

    machine::Machine &m = exec.machine();
    rec::OsScheduler sched(exec, config.quantum, config.legacyCpus);
    for (std::size_t n = 0; n < requests.size(); ++n) {
        const PalRequest &request = requests[n]->request;
        Slot *slot = &slots[n];
        slot->compute = request.slicedCompute > Duration::zero()
                            ? request.slicedCompute
                            : config.quantum;

        rec::PalProgram prog;
        prog.name = request.pal.name();
        prog.codeBytes = request.pal.code().size();
        prog.dataPages = request.dataPages;
        prog.totalCompute = slot->compute;
        prog.priority = request.priority;
        prog.deadline = request.deadline;
        prog.wantQuote = request.wantQuote;
        prog.stateStore = request.stateStore;

        // First slice: bind the input to the PAL's attested identity.
        const Bytes input = request.input;
        prog.onStart = [&m, slot, input](rec::PalHooks &hooks) -> Status {
            slot->started = true;
            slot->startedAt = m.cpu(hooks.cpu()).now();
            return hooks.extend(crypto::Sha1::digestBytes(input));
        };

        // Final slice: the application body runs inside the PAL's
        // protections, then the output joins the sePCR transcript.
        const SecureBody body = request.secureBody;
        prog.onFinish = [slot, input,
                         body](rec::PalHooks &hooks) -> Status {
            if (body) {
                auto out_bytes = body(hooks, input);
                if (!out_bytes)
                    return out_bytes.error();
                slot->output = out_bytes.take();
            }
            return hooks.extend(crypto::Sha1::digestBytes(slot->output));
        };

        if (auto idx = sched.add(prog); !idx)
            return idx.error();
    }

    sched.setCompletionHook([&slots, &requests, &reports = out.reports,
                             shard_id](const rec::PalCompletion &done) {
        const Slot &slot = slots[done.seq];
        const Pending &p = *requests[done.seq];
        ExecutionReport &r = reports[done.seq];
        r.requestId = p.id;
        r.palName = done.name;
        r.backend = backend::defaultBackendName;
        r.status = done.result;
        r.output = slot.output;
        r.palMeasurement = done.measurement;
        r.quote = done.quote;
        r.quoted = done.quoted;
        r.phases.compute = slot.compute;
        r.section(Capability::preemptible)
            .addCount("slaunches", done.launches);
        r.section(Capability::preemptible).addCount("yields", done.yields);
        r.submittedAt = p.submittedAt;
        r.startedAt =
            slot.started ? slot.startedAt : TimePoint(done.finishedAt);
        r.finishedAt = TimePoint(done.finishedAt);
        r.queueWait = r.startedAt - r.submittedAt;
        r.total = r.finishedAt - r.startedAt;
        r.launches = done.launches;
        r.yields = done.yields;
        r.cpu = done.cpu;
        r.shard = shard_id;
        r.deadlineMet = done.deadlineMet;
    });

    auto stats = sched.runAll();
    if (!stats)
        return stats.error();
    if (stats->completions.size() != requests.size())
        return Error(Errc::failedPrecondition,
                     "campaign finished without every completion");
    out.stats = stats.take();
    return out;
}

Result<std::vector<ExecutionReport>>
ExecutionService::drainInline(std::vector<Pending> batch)
{
    const TimePoint drain_start = machine_.now();
    const EngineRefs refs{machine_, exec_, server_, sessionKey_,
                          sessionLive_};

    auto outcome = runBatch(refs, batch, 0);
    if (!outcome)
        return outcome.error();

    // Unlike the sharded replay, the observers see the transport
    // milestones live, after onRequestDone and at mid-flush time.
    commitReports(outcome->reports);
    AuditOutcome audit;
    if (config_.auditTrail) {
        if (auto s = flushAudit(refs, outcome->reports, audit, true);
            !s.ok()) {
            return s.error();
        }
    }
    addRunTotals(*outcome, audit);

    metrics_.busy += machine_.now() - drain_start;
    observers_.notify(&ServiceObserver::onDrainEnd,
                      outcome->reports.size());
    return std::move(outcome->reports);
}

ExecutionService::Shard &
ExecutionService::ensureShard(std::uint32_t shard)
{
    if (shards_.size() <= shard)
        shards_.resize(static_cast<std::size_t>(shard) + 1);
    if (!shards_[shard]) {
        shards_[shard] = std::make_unique<Shard>(
            shard, machine_.spec(), machine_.seed(), config_.sePcrs);
        observers_.notify(&ServiceObserver::onShardCreated, shard,
                          *shards_[shard]->machine, shards_[shard]->exec);
    }
    return *shards_[shard];
}

Result<std::vector<ExecutionReport>>
ExecutionService::drainSharded(std::vector<Pending> batch)
{
    const TimePoint epoch = machine_.now();
    const std::uint32_t shard_count =
        std::max<std::uint32_t>(1, config_.shards);
    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(config_.workers);

    // Deterministic partition: a request's shard is a function of its
    // affinity key and the shard count only -- never of the worker
    // count or any host-side timing. Submit order is preserved within
    // each shard.
    std::vector<std::vector<Pending>> per_shard(shard_count);
    for (Pending &p : batch) {
        per_shard[shardOf(affinityOf(p.request), shard_count)]
            .push_back(std::move(p));
    }

    /** One shard campaign's scratch state; lives on this stack frame
     *  until pool_->wait() returns, so worker lambdas may hold
     *  references. */
    struct Run
    {
        Shard *shard = nullptr;
        std::vector<Pending> batch;
        Status status = okStatus();
        BatchOutcome out;
        AuditOutcome audit;
        Duration elapsed;
    };
    std::vector<Run> runs;
    runs.reserve(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
        if (per_shard[s].empty())
            continue;
        Run run;
        run.shard = &ensureShard(s); // observer callback: before fork
        run.batch = std::move(per_shard[s]);
        runs.push_back(std::move(run));
    }

    for (Run &run : runs) {
        pool_->submit(
            [this, &run, epoch] {
                Shard &shard = *run.shard;
                observers_.notify(&ServiceObserver::onShardBegin, shard.id,
                                  run.batch.size());
                // Reconcile the shard onto the service timeline: every
                // campaign in this drain starts at the same epoch.
                shard.machine->alignTo(epoch);
                const EngineRefs refs{*shard.machine, shard.exec,
                                      shard.server, shard.sessionKey,
                                      shard.sessionLive};
                auto outcome = runBatch(refs, run.batch, shard.id);
                if (!outcome) {
                    run.status = outcome.error();
                } else {
                    run.out = outcome.take();
                    if (config_.auditTrail) {
                        run.status = flushAudit(refs, run.out.reports,
                                                run.audit, false);
                    }
                }
                run.elapsed = shard.machine->now() - epoch;
                observers_.notify(&ServiceObserver::onShardEnd, shard.id,
                                  run.out.reports.size());
            },
            run.shard->id % pool_->workers());
    }
    pool_->wait();

    // ---- merge sequencer: single-threaded and deterministic ----
    for (const Run &run : runs) {
        if (!run.status.ok())
            return run.status.error();
    }

    std::vector<ExecutionReport> reports;
    for (Run &run : runs) {
        for (ExecutionReport &r : run.out.reports)
            reports.push_back(std::move(r));
    }
    // Stable submit-order commit (requestIds are unique and issued in
    // submission order).
    std::sort(reports.begin(), reports.end(),
              [](const ExecutionReport &a, const ExecutionReport &b) {
                  return a.requestId < b.requestId;
              });

    commitReports(reports);

    Duration max_elapsed;
    for (const Run &run : runs) {
        addRunTotals(run.out, run.audit);
        ++metrics_.shardDrains;
        // Transport milestones were recorded on the worker thread;
        // replay them here in deterministic shard order.
        for (const Milestone &m : run.audit.milestones)
            announce(m);
        observers_.notify(&ServiceObserver::onShardCommit, run.shard->id,
                          run.out.reports.size(), epoch,
                          epoch + run.elapsed);
        max_elapsed = std::max(max_elapsed, run.elapsed);
    }

    // The campaign's simulated cost is the slowest shard -- the shards
    // ran in parallel in virtual time too. Charge it to the service
    // CPU so the front machine's clock reflects the drain.
    machine_.cpu(config_.serviceCpu).advance(max_elapsed);
    metrics_.busy += max_elapsed;
    metrics_.steals = pool_->stats().steals;
    observers_.notify(&ServiceObserver::onDrainEnd, reports.size());
    return reports;
}

void
ExecutionService::commitReports(const std::vector<ExecutionReport> &reports)
{
    for (const ExecutionReport &r : reports) {
        ++metrics_.completed;
        if (!r.status.ok())
            ++metrics_.failed;
        if (!r.deadlineMet)
            ++metrics_.deadlinesMissed;
        metrics_.queueWait.add(r.queueWait);
        metrics_.turnaround.add(r.total);
        metrics_.compute.add(r.phases.compute);
        metrics_.launches += r.launches;
        metrics_.yields += r.yields;
        observers_.notify(&ServiceObserver::onRequestDone, r);
    }
}

void
ExecutionService::addRunTotals(const BatchOutcome &out,
                               const AuditOutcome &audit)
{
    metrics_.preemptions += out.preemptions;
    metrics_.slaunchRetries += out.slaunchRetries;
    metrics_.legacyWorkUnits += out.legacyWorkUnits;
    metrics_.backendRouted += out.backendRouted;
    metrics_.auditCommands += audit.commands;
    metrics_.auditExchanges += audit.exchanges;
    metrics_.sessionsAccepted += audit.opened;
    metrics_.sessionsResumed += audit.resumed;
}

Result<ExecutionReport>
ExecutionService::runOne(PalRequest request)
{
    if (queueDepth() != 0)
        return Error(Errc::failedPrecondition,
                     "runOne requires an otherwise-empty queue");
    if (auto id = submit(std::move(request)); !id)
        return id.error();
    auto reports = drain();
    if (!reports)
        return reports.error();
    return std::move(reports->front());
}

Result<tpm::TransportClient>
ExecutionService::attachSession(const EngineRefs &refs, AuditOutcome &out,
                                bool live)
{
    // The session key must not be computable by the on-path bus
    // adversary, so it comes from the machine's seeded RNG (still
    // byte-identical across same-seed runs), never from a public label.
    if (refs.sessionKey.empty())
        refs.sessionKey = refs.machine.rng().bytes(32);
    refs.machine.tpmAs(config_.serviceCpu); // TPM work charges our CPU
    if (refs.sessionLive && config_.reuseTransportSession) {
        // Resuming still crosses the LPC bus once; only the RSA decrypt
        // is saved.
        refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
        auto epoch = refs.server.acceptResumed(refs.sessionKey);
        if (!epoch)
            return epoch.error();
        ++out.resumed;
        record(out, {Milestone::Kind::sessionResumed, *epoch}, live);
        return tpm::TransportClient::resume(refs.sessionKey, *epoch);
    }
    auto opened = tpm::TransportClient::openWithKey(
        refs.machine.tpm().srkPublic(), refs.machine.rng(),
        refs.sessionKey);
    if (!opened)
        return opened.error();
    refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
    if (auto s = refs.server.accept(opened->envelope); !s.ok())
        return s.error();
    refs.sessionLive = true;
    ++out.opened;
    record(out, {Milestone::Kind::sessionOpened, 0}, live);
    return std::move(opened->client);
}

Status
ExecutionService::flushAudit(const EngineRefs &refs,
                             const std::vector<ExecutionReport> &reports,
                             AuditOutcome &out, bool live)
{
    if (reports.empty())
        return okStatus();
    std::vector<tpm::TransportCommand> commands;
    commands.reserve(reports.size());
    for (const ExecutionReport &r : reports) {
        tpm::TransportCommand c;
        c.op = tpm::TransportOp::pcrExtend;
        c.pcr = config_.auditPcr;
        c.payload = crypto::Sha1::digestBytes(r.encode());
        commands.push_back(std::move(c));
    }

    auto client = attachSession(refs, out, live);
    if (!client)
        return client.error();

    refs.machine.tpmAs(config_.serviceCpu);
    if (config_.pipelineTpm) {
        // One wrapped exchange carries the whole drain cycle's extends.
        refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
        auto response = refs.server.execute(client->wrapBatch(commands));
        if (!response)
            return response.error();
        auto replies = client->unwrapBatchResponse(*response);
        if (!replies)
            return replies.error();
        for (const tpm::TransportReply &reply : *replies) {
            if (!reply.ok())
                return Error(reply.status, "audit extend rejected");
        }
        ++out.exchanges;
        out.commands += commands.size();
        record(out, {Milestone::Kind::auditExchange, commands.size()},
               live);
    } else {
        for (const tpm::TransportCommand &c : commands) {
            refs.machine.cpu(config_.serviceCpu).advance(busExchangeCost);
            auto response = refs.server.execute(
                client->wrapCommand(c.op, c.pcr, c.payload));
            if (!response)
                return response.error();
            if (auto payload = client->unwrapResponse(*response);
                !payload) {
                return payload.error();
            }
            ++out.exchanges;
            ++out.commands;
            record(out, {Milestone::Kind::auditExchange, 1}, live);
        }
    }
    return okStatus();
}

void
ExecutionService::record(AuditOutcome &out, const Milestone &m, bool live)
{
    out.milestones.push_back(m);
    if (live)
        announce(m);
}

void
ExecutionService::announce(const Milestone &m)
{
    switch (m.kind) {
      case Milestone::Kind::sessionOpened:
        observers_.notify(&ServiceObserver::onSessionOpened);
        break;
      case Milestone::Kind::sessionResumed:
        observers_.notify(&ServiceObserver::onSessionResumed, m.value);
        break;
      case Milestone::Kind::auditExchange:
        observers_.notify(&ServiceObserver::onAuditExchange,
                          static_cast<std::size_t>(m.value));
        break;
    }
}

std::string
ServiceMetrics::str() const
{
    char line[160];
    std::string out;
    std::snprintf(line, sizeof line,
                  "requests: %llu submitted, %llu completed "
                  "(%llu failed, %llu missed deadlines)\n",
                  static_cast<unsigned long long>(submitted),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(deadlinesMissed));
    out += line;
    std::snprintf(line, sizeof line,
                  "scheduling: %llu launches, %llu yields "
                  "(%llu timer preemptions), %llu SLAUNCH retries, "
                  "max queue depth %llu\n",
                  static_cast<unsigned long long>(launches),
                  static_cast<unsigned long long>(yields),
                  static_cast<unsigned long long>(preemptions),
                  static_cast<unsigned long long>(slaunchRetries),
                  static_cast<unsigned long long>(maxQueueDepth));
    out += line;
    std::snprintf(line, sizeof line,
                  "tpm transport: %llu audit extends in %llu exchanges "
                  "(%.1f per exchange), %llu sessions opened, "
                  "%llu resumed\n",
                  static_cast<unsigned long long>(auditCommands),
                  static_cast<unsigned long long>(auditExchanges),
                  coalescingRatio(),
                  static_cast<unsigned long long>(sessionsAccepted),
                  static_cast<unsigned long long>(sessionsResumed));
    out += line;
    if (backendRouted != 0 || backendRejected != 0) {
        std::snprintf(line, sizeof line,
                      "backends: %llu registry-routed requests, "
                      "%llu submissions rejected at admission\n",
                      static_cast<unsigned long long>(backendRouted),
                      static_cast<unsigned long long>(backendRejected));
        out += line;
    }
    if (shardDrains != 0) {
        std::snprintf(line, sizeof line,
                      "sharding: %llu shard campaigns committed, "
                      "%llu worker-pool steals\n",
                      static_cast<unsigned long long>(shardDrains),
                      static_cast<unsigned long long>(steals));
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "throughput: %.1f PALs/simulated-second over %s busy "
                  "(%llu legacy work units alongside)\n",
                  palsPerSimSecond(), busy.str().c_str(),
                  static_cast<unsigned long long>(legacyWorkUnits));
    out += line;
    out += "queue wait:\n" + queueWait.str() + "\n";
    out += "turnaround:\n" + turnaround.str() + "\n";
    return out;
}

} // namespace mintcb::sea
