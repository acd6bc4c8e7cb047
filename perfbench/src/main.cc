/**
 * @file
 * perfbench: mintcb's host-time benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--prime] [--inject-unknown-pal]
 *
 * Workloads: gw-session, svc-quoted (see perfbench/README.md). One
 * invocation runs one workload: a few set-ups, a short untimed
 * warm-up, then the measured closed loop; an untraced run sets up
 * again at every slice boundary, and setup_s is the median of all
 * set-ups. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end five; with --trace 1 the measured time is
 * split into an untraced and a traced half and the metrics are the
 * per-layer set.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <sstream>
#include <string>

#include "harness.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload gw-session|svc-quoted "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--prime] [--inject-unknown-pal]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            opt.trace = value() == "1";
        else if (arg == "--trace-out")
            opt.traceOut = value();
        else if (arg == "--prime")
            opt.prime = true;
        else if (arg == "--inject-unknown-pal")
            opt.injectUnknownPal = true;
        else
            usage("unknown argument " + arg);
    }
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");
    return opt;
}

std::unique_ptr<Workload>
make(const Options &opt)
{
    if (opt.workload == "gw-session")
        return makeGwSession(opt);
    if (opt.workload == "svc-quoted")
        return makeSvcQuoted(opt);
    usage("unknown workload '" + opt.workload + "'");
}

std::string
latencyNote(const char *label, const Phase &p)
{
    std::ostringstream out;
    out << label << " latency (steal-free): p50=" << p.latencyPercentile(50)
        << " ms p99=" << p.latencyPercentile(99) << " ms over "
        << p.latencyMs.size() << " samples (as measured: p50="
        << percentile(p.latencyMs, 50)
        << " ms p99=" << percentile(p.latencyMs, 99) << " ms); " << p.ops
        << " ops in " << p.wallS << " s of op windows ("
        << p.ops / p.wallS << " ops/s as measured), " << p.failed
        << " failed of " << p.attempted << " attempted";
    return out.str();
}

std::string
slicesNote(const Phase &p)
{
    std::ostringstream out;
    out.precision(4);
    out << "slices (ops/s as measured @ steal ticks on the slice's "
        << (p.slices.empty() ? 0 : p.slices.front().cpus) << " CPU(s)):";
    for (const Slice &t : p.slices) {
        out << " " << (t.wallS > 0 ? static_cast<double>(t.ops) / t.wallS
                                   : 0.0)
            << "@" << t.stealTicks;
    }
    return out.str();
}

std::string
json(const Report &r)
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (r.correct ? "true" : "false")
        << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &[name, vu] = r.metrics[i];
        out << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
            << vu.first << ", \"unit\": \"" << vu.second << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    pinThisThread({callerCpu});
    std::unique_ptr<Workload> w = make(opt);

    if (opt.prime)
        return w->setUp() && primeReferences() ? 0 : 1;

    const std::size_t keys_before = keyCacheFiles();
    Report report;
    Tracer &t = tracer();

    // Set-up, several times; in traced runs its spans feed the set-up
    // layers (machine.build_ms, machine.shard_build_ms).
    t.enable(opt.trace);
    std::vector<double> setup_s;
    auto setUp = [&] {
        w->tearDown();
#ifdef __GLIBC__
        // Hand the freed rig's memory back to the kernel, so every
        // set-up, like a fresh process's, faults its memory in anew
        // instead of reusing whatever the allocator happened to keep.
        malloc_trim(0);
#endif
        const std::int64_t t0 = nowNs();
        if (!w->setUp())
            return false;
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        return true;
    };
    for (int k = 0; k < setupRepeats; ++k) {
        if (!setUp())
            return 1;
    }
    t.enable(false);

    auto step = [&](Window &win) { return w->step(win); };
    const Phase warmup = runPhase(warmupSeconds, step, &report.correct);
    report.attempted += warmup.attempted;
    report.failed += warmup.failed;

    Phase measured;
    if (!opt.trace) {
        bool set_up = true;
        measured = runPhase(opt.seconds, step, &report.correct,
                            [&] { return set_up = setUp(); });
        if (!set_up)
            return 1;
        endToEnd(report, measured, setup_s);
        report.notes.push_back(latencyNote("untraced", measured));
    } else {
        const Phase untraced = runPhase(opt.seconds / 2, step,
                                        &report.correct);
        w->beginTraced();
        t.enable(true);
        measured = runPhase(opt.seconds / 2, step, &report.correct);
        t.enable(false);
        std::map<std::string, double> values;
        w->layers(measured, values);
        values["obs.trace_overhead_pct"] =
            untraced.throughput() > 0
                ? (untraced.throughput() - measured.throughput()) /
                      untraced.throughput() * 100.0
                : 0.0;
        values["obs.coverage_pct"] = t.coverage("op") * 100.0;
        report.notes.push_back(latencyNote("untraced half", untraced));
        report.notes.push_back(latencyNote("traced half", measured));
        report.attempted += untraced.attempted;
        report.failed += untraced.failed;

        std::ostringstream cov;
        cov << opt.workload << " coverage: "
            << values["obs.coverage_pct"]
            << "% of op wall time explained by named layer spans "
               "(target >= 90%)";
        report.notes.push_back(cov.str());
        for (const std::string &row : t.selfTimeTable())
            report.notes.push_back(row);
        if (!opt.traceOut.empty()) {
            if (t.writeChromeJson(opt.traceOut))
                report.notes.push_back("spans written to " + opt.traceOut);
            else
                report.notes.push_back("could not write " + opt.traceOut);
        }
        perLayer(report, values, opt.seed, keys_before);
    }
    {
        std::ostringstream out;
        out << "set-up samples (s):";
        for (double s : setup_s)
            out << " " << s;
        report.notes.push_back(out.str());
    }
    report.attempted += measured.attempted;
    report.failed += measured.failed;
    if (!w->finish(report.notes))
        report.correct = false;
    report.notes.push_back(slicesNote(measured));
    report.notes.push_back(hostNoise(measured));

    report.notes.push_back("keys generated during set-up or measurement: " +
                           std::to_string(keyCacheFiles() - keys_before));

    for (const std::string &n : report.notes)
        std::cout << n << "\n";
    std::cout << json(report) << std::endl;
    return 0;
}
