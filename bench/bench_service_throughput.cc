/**
 * @file
 * Execution-service throughput on the recommended hardware: PALs per
 * simulated second as the PAL-core count grows (the multiprogramming
 * win SLAUNCH buys, Section 5.7), plus the TPM-traffic optimizations --
 * command pipelining and transport-session resumption -- and a
 * byte-level determinism check over the full request/response path.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "sea/service.hh"
#include "support/benchutil.hh"
#include "verify/race.hh"
#include "verify/temporal.hh"
#include "verify/trace.hh"

using namespace mintcb;
using machine::Machine;
using machine::PlatformId;

namespace
{

constexpr int workloadPals = 16;
constexpr Duration perPalCompute = Duration::millis(40);

/** Sharded host-parallel workload: enough PALs to spread across the
 *  service's 8 virtual shards, each requesting a quote so every shard
 *  campaign carries real host work (an RSA sign per PAL plus the
 *  shard's session RSA exchange). */
constexpr int shardedPals = 64;
constexpr Duration shardedCompute = Duration::millis(10);

/** --workers N: cap for the host-parallel sweep (default 8). */
unsigned maxWorkers = 8;

/** --check: run every runWorkload() campaign under the happens-before
 *  race detector and the temporal trace checker; any finding, or no
 *  checked campaign at all, ends the bench with a nonzero exit. */
bool checkMode = false;
std::uint64_t checkedRuns = 0;

void
failCheck(const std::string &what)
{
    std::fprintf(stderr, "--check FAILED: %s\n", what.c_str());
    std::exit(1);
}

void
verifyRun(const verify::HbRaceDetector &detector,
          const verify::ExecutionTrace &trace,
          const sea::ServiceMetrics &metrics)
{
    if (!detector.races().empty())
        failCheck(detector.str());
    if (const auto t = verify::checkTemporal(trace); !t.ok())
        failCheck(t.str());
    if (const auto m = verify::lintMetrics(metrics); !m.ok())
        failCheck(m.str());
    ++checkedRuns;
}

sea::PalRequest
workerRequest(int i)
{
    sea::PalRequest req(sea::Pal::fromLogic(
        "svc-worker-" + std::to_string(i), 4 * 1024,
        [](sea::PalContext &) { return okStatus(); }));
    req.slicedCompute = perPalCompute;
    return req;
}

/** Run the standard workload with @p pal_cores PAL-eligible cores on
 *  the 8-core server preset; returns the service for metric reads. */
sea::ServiceMetrics
runWorkload(std::uint32_t pal_cores, bool audit, std::uint64_t seed = 0)
{
    Machine m = Machine::forPlatform(PlatformId::recServer, seed);
    sea::ServiceConfig config;
    config.quantum = Duration::millis(4);
    config.legacyCpus =
        static_cast<std::uint32_t>(m.cpuCount()) - pal_cores;
    config.auditTrail = audit;
    sea::ExecutionService svc(m, config);

    verify::ExecutionTrace trace;
    std::optional<verify::TraceRecorder> recorder;
    std::optional<verify::HbRaceDetector> detector;
    if (checkMode) {
        recorder.emplace(trace);
        recorder->attach(svc);
        detector.emplace(m.cpuCount());
        detector->attach(m.memctrl());
        detector->attach(svc.executive());
    }

    for (int i = 0; i < workloadPals; ++i) {
        auto id = svc.submit(workerRequest(i));
        if (!id.ok())
            std::abort();
    }
    if (!svc.drain().ok())
        std::abort();
    if (checkMode)
        verifyRun(*detector, trace, svc.metrics());
    return svc.metrics();
}

void
scalingTable()
{
    benchutil::heading(
        "Execution-service scaling: 16 x 40 ms PALs, 8-core server, "
        "1 -> 4 PAL cores (audit off: pure scheduling)");

    double base = 0.0;
    double best = 0.0;
    for (std::uint32_t cores : {1u, 2u, 4u}) {
        const sea::ServiceMetrics metrics =
            runWorkload(cores, /*audit=*/false);
        const double throughput = metrics.palsPerSimSecond();
        benchutil::rowSimOnly(
            std::to_string(cores) + " PAL core(s), PALs/sim-second",
            throughput, "PAL/s");
        if (cores == 1)
            base = throughput;
        best = throughput;
    }
    benchutil::check("1 -> 4 PAL cores scales throughput >= 2x",
                     best >= 2.0 * base);
}

void
pipeliningTable()
{
    benchutil::heading("TPM command pipelining: audit-trail extends per "
                       "transport exchange");

    const sea::ServiceMetrics batched = runWorkload(4, /*audit=*/true);
    Machine m = Machine::forPlatform(PlatformId::recServer);
    sea::ServiceConfig serial_config;
    serial_config.quantum = Duration::millis(4);
    serial_config.legacyCpus = 4;
    serial_config.pipelineTpm = false;
    sea::ExecutionService serial(m, serial_config);
    for (int i = 0; i < workloadPals; ++i) {
        if (!serial.submit(workerRequest(i)).ok())
            std::abort();
    }
    if (!serial.drain().ok())
        std::abort();

    benchutil::rowSimOnly("pipelined: commands per exchange",
                          batched.coalescingRatio(), "cmds");
    benchutil::rowSimOnly("serial: commands per exchange",
                          serial.metrics().coalescingRatio(), "cmds");
    benchutil::rowSimOnly("pipelined busy time",
                          batched.busy.toMillis(), "ms");
    benchutil::rowSimOnly("serial busy time",
                          serial.metrics().busy.toMillis(), "ms");
    benchutil::check("pipelining coalesces the whole drain into one "
                     "exchange",
                     batched.coalescingRatio() ==
                         static_cast<double>(workloadPals));
    benchutil::check("pipelining shortens the drain",
                     batched.busy < serial.metrics().busy);
}

void
sessionReuseTable()
{
    benchutil::heading("Transport-session resumption across drains "
                       "(fresh RSA key exchange vs ticket)");

    auto two_drains = [](bool reuse) {
        Machine m = Machine::forPlatform(PlatformId::recServer);
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        config.reuseTransportSession = reuse;
        sea::ExecutionService svc(m, config);
        for (int round = 0; round < 2; ++round) {
            for (int i = 0; i < 4; ++i) {
                if (!svc.submit(workerRequest(i)).ok())
                    std::abort();
            }
            if (!svc.drain().ok())
                std::abort();
        }
        return svc.metrics();
    };

    const sea::ServiceMetrics resumed = two_drains(true);
    const sea::ServiceMetrics fresh = two_drains(false);
    benchutil::rowSimOnly("with resumption: busy time",
                          resumed.busy.toMillis(), "ms");
    benchutil::rowSimOnly("fresh key exchange each drain: busy time",
                          fresh.busy.toMillis(), "ms");
    benchutil::check("resumption skips the second RSA key exchange",
                     resumed.sessionsResumed == 1 &&
                         fresh.sessionsAccepted == 2);
    benchutil::check("resumption saves hundreds of milliseconds",
                     fresh.busy - resumed.busy >
                         Duration::millis(300));
}

/**
 * The telemetry layer promises zero simulated-time overhead: observers
 * read clocks, they never advance them. Prove it by running the same
 * seeded workload bare and with a full TelemetrySession attached and
 * demanding identical busy time and byte-identical encoded reports.
 */
void
telemetryOverheadTable()
{
    benchutil::heading("Telemetry overhead: spans + metrics attached "
                       "must not move simulated time");

    auto run = [](bool telemetry) {
        Machine m = Machine::forPlatform(PlatformId::recServer, 42);
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        config.auditTrail = true;
        sea::ExecutionService svc(m, config);
        std::optional<obs::SpanTracer> tracer;
        std::optional<obs::MetricsRegistry> registry;
        std::optional<obs::TelemetrySession> session;
        if (telemetry) {
            tracer.emplace();
            registry.emplace();
            session.emplace(m, *tracer, *registry);
            session->attach(svc);
        }
        for (int i = 0; i < workloadPals; ++i) {
            if (!svc.submit(workerRequest(i)).ok())
                std::abort();
        }
        auto reports = svc.drain();
        if (!reports.ok())
            std::abort();
        Bytes all;
        for (const sea::ExecutionReport &r : *reports) {
            const Bytes wire = r.encode();
            all.insert(all.end(), wire.begin(), wire.end());
        }
        std::size_t spans = 0;
        if (session) {
            session->detach();
            spans = tracer->spans().size();
        }
        return std::make_pair(svc.metrics().busy,
                              std::make_pair(std::move(all), spans));
    };

    const auto [plainBusy, plainRest] = run(false);
    const auto [tracedBusy, tracedRest] = run(true);
    benchutil::rowSimOnly("busy time, bare", plainBusy.toMillis(), "ms");
    benchutil::rowSimOnly("busy time, telemetry attached",
                          tracedBusy.toMillis(), "ms");
    benchutil::rowSimOnly("spans recorded meanwhile",
                          static_cast<double>(tracedRest.second), "");
    benchutil::check("telemetry leaves simulated time untouched",
                     plainBusy == tracedBusy);
    benchutil::check("telemetry leaves report bytes untouched",
                     plainRest.first == tracedRest.first);
    benchutil::check("telemetry actually recorded spans",
                     tracedRest.second > 0);
}

/** Warm-drain rounds. Each round drains once on every worker count in
 *  turn, so two counts' drains in one round run back to back under the
 *  same host conditions. */
constexpr int warmRounds = 9;

/** Attempts, of warmRounds paired rounds each, at the 2-vs-1-worker
 *  warm-drain check. A further attempt runs only after one falls short,
 *  so a neighbour stealing a core for a few seconds on a shared host
 *  does not fail it, while a drain that does not scale fails them all. */
constexpr int speedupAttempts = 3;

/** Collects every shard machine the service builds (onShardCreated
 *  runs on the draining thread, in shard order). */
struct ShardMachines final : sea::ServiceObserver
{
    std::vector<Machine *> machines;

    void onDrainBegin(std::size_t) override {}
    void onDrainEnd(std::size_t) override {}
    void onSessionOpened() override {}
    void onSessionResumed(std::uint64_t) override {}
    void onAuditExchange(std::size_t) override {}
    void
    onShardCreated(std::uint32_t, Machine &machine,
                   rec::SecureExecutive &) override
    {
        machines.push_back(&machine);
    }
};

/** One sharded service at a fixed worker count. Its first drain is
 *  cold (it builds every shard machine and opens every shard's
 *  transport session); later drains of the same batch run warm on the
 *  shards it left behind. Wall-clock times are of drain() itself. */
struct ShardedRun
{
    ShardMachines shards; //!< declared first: outlives svc, its observer
    Machine machine;
    sea::ExecutionService svc;

    double coldMs = 0.0;
    std::vector<double> warmRoundMs; //!< one per warm drain
    Bytes coldWire;
    Bytes warmWire; //!< first warm drain's reports
    Duration busy;  //!< after the cold drain
    std::uint64_t steals = 0;
    std::uint64_t residentPages = 0; //!< over every shard machine

    explicit ShardedRun(std::uint32_t workers)
        : machine(Machine::forPlatform(PlatformId::recServer, 42)),
          svc(machine, configFor(workers))
    {
        svc.observers().add(&shards);
    }

    static sea::ServiceConfig
    configFor(std::uint32_t workers)
    {
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        config.workers = workers;
        return config;
    }

    /** Submit the batch, drain it, and return the wall-clock
     *  milliseconds and the concatenated encoded reports. */
    std::pair<double, Bytes>
    drainBatch()
    {
        for (int i = 0; i < shardedPals; ++i) {
            sea::PalRequest req(sea::Pal::fromLogic(
                "shard-worker-" + std::to_string(i), 4 * 1024,
                [](sea::PalContext &) { return okStatus(); }));
            req.slicedCompute = shardedCompute;
            req.wantQuote = true;
            if (!svc.submit(std::move(req)).ok())
                std::abort();
        }
        const auto wall_start = std::chrono::steady_clock::now();
        auto reports = svc.drain();
        const auto wall_end = std::chrono::steady_clock::now();
        if (!reports.ok())
            std::abort();
        Bytes wire;
        for (const sea::ExecutionReport &r : *reports) {
            const Bytes one = r.encode();
            wire.insert(wire.end(), one.begin(), one.end());
        }
        return {std::chrono::duration<double, std::milli>(wall_end -
                                                          wall_start)
                    .count(),
                std::move(wire)};
    }

    void
    coldDrain()
    {
        std::tie(coldMs, coldWire) = drainBatch();
        busy = svc.metrics().busy;
        steals = svc.poolStats().steals;
        for (Machine *shard : shards.machines)
            residentPages += shard->memory().residentPages();
    }

    void
    warmDrain()
    {
        auto [ms, wire] = drainBatch();
        if (warmRoundMs.empty())
            warmWire = std::move(wire);
        warmRoundMs.push_back(ms);
    }

    double
    fastestWarmMs() const
    {
        return *std::min_element(warmRoundMs.begin(), warmRoundMs.end());
    }
};

/**
 * The tentpole claim: worker count changes wall-clock time only. The
 * first table reports the host timings, labeled "host" so the
 * bench-regression gate skips them. The second holds what the gate
 * checks on every host: cold and warm reports and simulated busy time
 * identical at every worker count, the sparse shard RAM footprint as an
 * exact count, and -- on hosts with at least two hardware threads -- a
 * warm-drain speedup at 2 workers. (A cold drain builds its shard
 * machines serially, so by Amdahl's law its speedup is capped; it is
 * reported, not checked.)
 */
void
hostParallelTable()
{
    benchutil::heading(
        "Host-parallel sharded drains: " +
        std::to_string(shardedPals) +
        " quoted PALs over 8 shards, work-stealing worker pool "
        "(wall-clock rows are host-dependent)");

    std::vector<unsigned> counts;
    for (unsigned w : {1u, 2u, 4u, 8u}) {
        if (w <= maxWorkers)
            counts.push_back(w);
    }
    if (counts.empty() || counts.back() != maxWorkers)
        counts.push_back(maxWorkers);

    std::vector<std::unique_ptr<ShardedRun>> runs;
    for (unsigned w : counts) {
        runs.push_back(std::make_unique<ShardedRun>(w));
        runs.back()->coldDrain();
    }
    for (int round = 0; round < warmRounds; ++round) {
        for (auto &run : runs)
            run->warmDrain();
    }
    const ShardedRun &one = *runs.front();

    for (std::size_t i = 0; i < counts.size(); ++i) {
        const std::string n = std::to_string(counts[i]);
        benchutil::rowSimOnly("host wall ms, cold drain, " + n +
                                  " worker(s)",
                              runs[i]->coldMs, "ms");
        benchutil::rowSimOnly("host wall ms, warm drain, " + n +
                                  " worker(s)",
                              runs[i]->fastestWarmMs(), "ms");
        benchutil::counterDelta("host_wall_ms_cold_w" + n,
                                runs[i]->coldMs);
        benchutil::counterDelta("host_wall_ms_warm_w" + n,
                                runs[i]->fastestWarmMs());
    }
    benchutil::rowSimOnly("host steals at max workers",
                          static_cast<double>(runs.back()->steals), "");
    benchutil::rowSimOnly("sharded drain busy time (simulated)",
                          one.busy.toMillis(), "ms");
    benchutil::counterDelta("sharded_busy_ms", one.busy.toMillis());

    const unsigned hw = std::thread::hardware_concurrency();
    auto speedup = [](double base, double faster) {
        return faster > 0.0 ? base / faster : 0.0;
    };
    const double cold_speedup = speedup(one.coldMs, runs.back()->coldMs);
    const double warm_speedup =
        speedup(one.fastestWarmMs(), runs.back()->fastestWarmMs());
    benchutil::rowSimOnly("host hardware threads",
                          static_cast<double>(hw), "");
    benchutil::rowSimOnly("host speedup, cold drain, max workers vs 1",
                          cold_speedup, "x");
    benchutil::rowSimOnly("host speedup, warm drain, max workers vs 1",
                          warm_speedup, "x");
    benchutil::counterDelta("host_speedup_cold_max", cold_speedup);
    benchutil::counterDelta("host_speedup_warm_max", warm_speedup);

    benchutil::heading("Sharded drains: determinism, warm-drain scaling "
                       "and sparse shard RAM (" +
                       std::to_string(shardedPals) +
                       " quoted PALs over 8 shards)");
    bool identical = true;
    bool warm_identical = true;
    bool busy_identical = true;
    for (const auto &run : runs) {
        identical = identical && run->coldWire == one.coldWire;
        warm_identical = warm_identical && run->warmWire == one.warmWire;
        busy_identical = busy_identical && run->busy == one.busy;
    }
    benchutil::check("reports byte-identical across every worker count",
                     identical);
    benchutil::check("warm drain reports byte-identical across every "
                     "worker count",
                     warm_identical);
    benchutil::check("simulated busy time identical across every "
                     "worker count",
                     busy_identical);

    // Every PAL page is erased, and so freed, before SFREE: nothing a
    // shard ran stays resident.
    const double resident_per_shard =
        one.shards.machines.empty()
            ? 0.0
            : static_cast<double>(one.residentPages) /
                  static_cast<double>(one.shards.machines.size());
    benchutil::rowSimOnly("resident pages per shard machine after the "
                          "cold drain",
                          resident_per_shard, "pages");
    benchutil::counterDelta("shard_resident_pages", resident_per_shard);

    if (hw >= 2 && maxWorkers >= 2) {
        ShardedRun &two_workers = *runs[1];
        // Median over the last warmRounds rounds of the back-to-back
        // 1-vs-2-worker ratio: a slowdown spanning a round's pair
        // cancels out in it.
        auto paired = [&] {
            std::vector<double> ratios;
            const std::size_t n = one.warmRoundMs.size();
            for (std::size_t r = n - warmRounds; r < n; ++r) {
                ratios.push_back(speedup(one.warmRoundMs[r],
                                         two_workers.warmRoundMs[r]));
            }
            std::sort(ratios.begin(), ratios.end());
            return ratios[ratios.size() / 2];
        };
        double two = paired();
        int attempts = 1;
        for (; two < 1.5 && attempts < speedupAttempts; ++attempts) {
            for (int round = 0; round < warmRounds; ++round) {
                runs[0]->warmDrain();
                two_workers.warmDrain();
            }
            two = std::max(two, paired());
        }
        std::printf("  warm drain, 2 workers vs 1: %.2fx (median of %d "
                    "paired rounds, best of %d attempt(s))\n",
                    two, warmRounds, attempts);
        benchutil::check("warm drain at 2 workers >= 1.5x faster than "
                         "at 1 worker",
                         two >= 1.5);
    } else {
        std::printf("  (warm-drain scaling check skipped: %u hardware "
                    "thread(s), --workers %u)\n",
                    hw, maxWorkers);
    }
}

/** --json extras: per-request latency percentiles and counter deltas
 *  from one instrumented 4-core drain. */
void
recordJsonDetail()
{
    const sea::ServiceMetrics metrics = runWorkload(4, /*audit=*/true);
    benchutil::histogram("queue_wait", metrics.queueWait);
    benchutil::histogram("turnaround", metrics.turnaround);
    benchutil::histogram("compute", metrics.compute);
    benchutil::counterDelta("submitted",
                            static_cast<double>(metrics.submitted));
    benchutil::counterDelta("completed",
                            static_cast<double>(metrics.completed));
    benchutil::counterDelta("launches",
                            static_cast<double>(metrics.launches));
    benchutil::counterDelta("preemptions",
                            static_cast<double>(metrics.preemptions));
    benchutil::counterDelta("audit_commands",
                            static_cast<double>(metrics.auditCommands));
    benchutil::counterDelta("audit_exchanges",
                            static_cast<double>(metrics.auditExchanges));
    benchutil::counterDelta("busy_ms", metrics.busy.toMillis());
}

void
determinismCheck()
{
    benchutil::heading("Determinism: byte-identical reports across two "
                       "same-seed runs (full service path, audit on)");

    auto encode_all = [](std::uint64_t seed) {
        Machine m = Machine::forPlatform(PlatformId::recServer, seed);
        sea::ServiceConfig config;
        config.quantum = Duration::millis(4);
        config.legacyCpus = 4;
        sea::ExecutionService svc(m, config);
        for (int i = 0; i < workloadPals; ++i) {
            sea::PalRequest req = workerRequest(i);
            req.wantQuote = (i % 4 == 0);
            if (!svc.submit(std::move(req)).ok())
                std::abort();
        }
        auto reports = svc.drain();
        if (!reports.ok())
            std::abort();
        Bytes all;
        for (const sea::ExecutionReport &r : *reports) {
            const Bytes wire = r.encode();
            all.insert(all.end(), wire.begin(), wire.end());
        }
        return all;
    };

    const Bytes first = encode_all(7);
    const Bytes second = encode_all(7);
    benchutil::rowSimOnly("encoded report bytes per run",
                          static_cast<double>(first.size()), "B");
    benchutil::check("two same-seed runs encode byte-identically",
                     first == second);
}

void
BM_ServiceDrain(benchmark::State &state)
{
    const auto pal_cores = static_cast<std::uint32_t>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        const sea::ServiceMetrics metrics =
            runWorkload(pal_cores, /*audit=*/true, seed++);
        state.SetIterationTime(metrics.busy.toSeconds());
    }
    state.counters["pals_per_sim_s"] = benchmark::Counter(0);
    const sea::ServiceMetrics metrics =
        runWorkload(pal_cores, /*audit=*/true, 1234);
    state.counters["pals_per_sim_s"] =
        benchmark::Counter(metrics.palsPerSimSecond());
}

} // namespace

BENCHMARK(BM_ServiceDrain)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(5);

int
main(int argc, char **argv)
{
    benchutil::stripJsonFlag(&argc, argv);
    // Strip --check and --workers N before google-benchmark sees (and
    // rejects) them.
    for (int i = 1; i < argc; ++i) {
        int eat = 0;
        if (std::strcmp(argv[i], "--check") == 0) {
            checkMode = true;
            eat = 1;
        } else if (std::strcmp(argv[i], "--workers") == 0 &&
                   i + 1 < argc) {
            maxWorkers = static_cast<unsigned>(
                std::strtoul(argv[i + 1], nullptr, 10));
            eat = 2;
        } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
            maxWorkers = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 10));
            eat = 1;
        }
        if (eat > 0) {
            for (int j = i; j + eat < argc; ++j)
                argv[j] = argv[j + eat];
            argc -= eat;
            --i;
        }
    }
    if (maxWorkers == 0)
        maxWorkers = 1;

    scalingTable();
    pipeliningTable();
    sessionReuseTable();
    telemetryOverheadTable();
    determinismCheck();
    hostParallelTable();
    if (benchutil::jsonMode())
        recordJsonDetail();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (checkMode) {
        benchutil::check("--check: " + std::to_string(checkedRuns) +
                             " instrumented campaigns race-free and "
                             "temporally clean",
                         checkedRuns > 0);
        if (checkedRuns == 0)
            failCheck("no instrumented campaign ran");
    }
    return benchutil::writeJsonArtifact() ? 0 : 1;
}
