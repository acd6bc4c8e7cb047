/**
 * @file
 * Measurement harness implementation.
 */

#include "harness.hh"

#include <sched.h>
#include <sys/types.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench
{

namespace
{

thread_local std::uint32_t tlsSpan = 0;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t index = next.fetch_add(1);
    return index;
}

/** A "Key:  value kB" line of /proc/self/status, in MiB. */
double
statusMb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return std::atof(line.c_str() + prefix.size()) / 1024.0;
    }
    return 0.0;
}

} // namespace

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMb()
{
    return statusMb("VmHWM");
}

double
currentRssMb()
{
    return statusMb("VmRSS");
}

std::size_t
keyCacheFiles()
{
    const char *tmp = std::getenv("TMPDIR");
    DIR *dir = opendir(tmp ? tmp : "/tmp");
    if (!dir)
        return 0;
    std::size_t n = 0;
    while (dirent *e = readdir(dir)) {
        const std::string name = e->d_name;
        if (name.rfind("mintcb-key-", 0) == 0 && name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".bin") == 0)
            ++n;
    }
    closedir(dir);
    return n;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

std::uint32_t
Tracer::reserve()
{
    return nextId_.fetch_add(1);
}

void
Tracer::addWithId(std::uint32_t id, const char *name, std::int64_t start,
                  std::int64_t end, std::uint32_t parent, std::uint64_t op)
{
    Span s{name, start, end, id, parent, op, threadIndex()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
}

std::uint32_t
Tracer::add(const char *name, std::int64_t start, std::int64_t end,
            std::uint32_t parent, std::uint64_t op)
{
    if (!enabled())
        return 0;
    const std::uint32_t id = reserve();
    addWithId(id, name, start, end, parent, op);
    return id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<Span>
Tracer::named(const char *name) const
{
    std::vector<Span> out;
    for (const Span &s : spans()) {
        if (std::string(s.name) == name)
            out.push_back(s);
    }
    return out;
}

double
Tracer::meanMs(const char *name, bool ops_only) const
{
    std::vector<double> d;
    for (const Span &s : named(name)) {
        if (!ops_only || s.op != 0)
            d.push_back(static_cast<double>(s.end - s.start) / 1e6);
    }
    return mean(d);
}

double
Tracer::sumMs(const char *name, bool ops_only) const
{
    double total = 0.0;
    for (const Span &s : named(name)) {
        if (!ops_only || s.op != 0)
            total += static_cast<double>(s.end - s.start) / 1e6;
    }
    return total;
}

namespace
{

/** Nanoseconds of [start,end) covered by the union of @p kids. */
std::int64_t
covered(std::int64_t start, std::int64_t end,
        std::vector<std::pair<std::int64_t, std::int64_t>> kids)
{
    std::sort(kids.begin(), kids.end());
    std::int64_t total = 0;
    std::int64_t cursor = start;
    for (auto [a, b] : kids) {
        a = std::max(a, cursor);
        b = std::min(b, end);
        if (b > a) {
            total += b - a;
            cursor = b;
        }
    }
    return total;
}

std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
childrenByParent(const std::vector<Span> &all)
{
    std::map<std::uint32_t,
             std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids;
    for (const Span &s : all) {
        if (s.parent != 0)
            kids[s.parent].emplace_back(s.start, s.end);
    }
    return kids;
}

} // namespace

std::vector<std::string>
Tracer::selfTimeTable() const
{
    const std::vector<Span> all = spans();
    const auto kids = childrenByParent(all);
    struct Row
    {
        std::size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const Span &s : all) {
        if (s.op == 0)
            continue;
        auto it = kids.find(s.id);
        const std::int64_t cov =
            it == kids.end() ? 0 : covered(s.start, s.end, it->second);
        Row &r = rows[s.name];
        ++r.count;
        r.totalMs += static_cast<double>(s.end - s.start) / 1e6;
        r.selfMs += static_cast<double>(s.end - s.start - cov) / 1e6;
    }
    std::vector<std::string> out;
    for (const auto &[name, r] : rows) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "span %-22s n=%-7zu mean=%.4f ms self=%.4f ms",
                      name.c_str(), r.count, r.totalMs / r.count,
                      r.selfMs / r.count);
        out.push_back(buf);
    }
    return out;
}

double
Tracer::coverage(const char *op_name) const
{
    const std::vector<Span> all = spans();
    const auto kids = childrenByParent(all);
    std::int64_t total = 0;
    std::int64_t explained = 0;
    for (const Span &s : all) {
        if (s.op == 0 || std::string(s.name) != op_name)
            continue;
        total += s.end - s.start;
        auto it = kids.find(s.id);
        if (it != kids.end())
            explained += covered(s.start, s.end, it->second);
    }
    return total > 0 ? static_cast<double>(explained) /
                           static_cast<double>(total)
                     : 0.0;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::vector<Span> all = spans();
    const std::int64_t base = all.empty() ? 0 : all.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%u,\"parent\":%u,\"op\":%llu}}",
                      i ? "," : "", s.name, s.thread,
                      static_cast<double>(s.start - base) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, s.id,
                      s.parent, static_cast<unsigned long long>(s.op));
        out << buf << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

Scope::Scope(const char *name) : name_(name)
{
    Tracer &t = tracer();
    on_ = t.enabled();
    if (!on_)
        return;
    id_ = t.reserve();
    parent_ = tlsSpan;
    tlsSpan = id_;
    start_ = nowNs();
}

Scope::~Scope()
{
    if (!on_)
        return;
    const std::int64_t end = nowNs();
    tlsSpan = parent_;
    tracer().addWithId(id_, name_, start_, end, parent_,
                       tracer().currentOp.load());
}

Window::Window(Phase &phase, std::uint64_t op_id)
    : phase_(phase), op_(op_id)
{
}

void
Window::open()
{
    Tracer &t = tracer();
    if (t.enabled()) {
        span_ = t.reserve();
        t.currentOp.store(op_);
        t.currentSpan.store(span_);
        tlsSpan = span_;
    }
    cpu0_ = processCpuSeconds();
    t0_ = nowNs();
}

void
Window::close()
{
    const std::int64_t t1 = nowNs();
    const double cpu1 = processCpuSeconds();
    lastMs_ = static_cast<double>(t1 - t0_) / 1e6;
    phase_.wallS += static_cast<double>(t1 - t0_) / 1e9;
    phase_.cpuS += cpu1 - cpu0_;
    if (span_ != 0) {
        Tracer &t = tracer();
        t.addWithId(span_, "op", t0_, t1, 0, op_);
        t.currentSpan.store(0);
        t.currentOp.store(0);
        tlsSpan = 0;
        span_ = 0;
    }
}

namespace
{

std::mutex placementMu;
std::vector<int> pinned; // guarded by placementMu

bool
placementEnabled()
{
    return std::thread::hardware_concurrency() >= 4;
}

/** The CPUs pinned so far (none: unplaced, all CPUs). */
std::vector<int>
pinnedCpus()
{
    std::lock_guard<std::mutex> lock(placementMu);
    return pinned;
}

/** Steal ticks of @p cpus (the all-CPU line when empty). */
std::uint64_t
stealTicksOf(const std::vector<int> &cpus)
{
    std::ifstream in("/proc/stat");
    std::string line;
    std::uint64_t total = 0;
    while (std::getline(in, line)) {
        if (line.rfind("cpu", 0) != 0)
            break;
        std::istringstream fields(line);
        std::string name;
        std::uint64_t v[8] = {};
        fields >> name;
        for (std::uint64_t &x : v)
            fields >> x;
        const bool all = name == "cpu";
        if (cpus.empty() ? all
                         : !all && std::find(cpus.begin(), cpus.end(),
                                             std::atoi(name.c_str() + 3)) !=
                                       cpus.end())
            total += v[7];
    }
    return total;
}

} // namespace

void
pinThisThread(std::initializer_list<int> cpus)
{
    if (!placementEnabled())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
    std::lock_guard<std::mutex> lock(placementMu);
    for (int c : cpus) {
        if (std::find(pinned.begin(), pinned.end(), c) == pinned.end())
            pinned.push_back(c);
    }
}

double
Slice::stealShare() const
{
    if (elapsedS <= 0.0)
        return 0.0;
    const double stolen_s = static_cast<double>(stealTicks) /
                            static_cast<double>(sysconf(_SC_CLK_TCK));
    return std::min(0.9, stolen_s / (elapsedS * cpus));
}

double
Phase::throughput() const
{
    std::vector<double> v;
    for (const Slice &t : slices) {
        if (t.ops > 0 && t.wallS > 0)
            v.push_back(static_cast<double>(t.ops) /
                        (t.wallS * (1.0 - t.stealShare())));
    }
    return median(v);
}

double
Phase::cpuMsPerOp() const
{
    std::vector<double> v;
    for (const Slice &t : slices) {
        if (t.ops > 0)
            v.push_back(t.cpuS * 1e3 / static_cast<double>(t.ops));
    }
    return median(v);
}

double
Phase::latencyPercentile(double p) const
{
    std::vector<double> v;
    for (const Slice &t : slices) {
        const double keep = 1.0 - t.stealShare();
        for (std::size_t i = t.firstLatency; i < t.endLatency; ++i)
            v.push_back(latencyMs[i] * keep);
    }
    return percentile(v, p);
}

Phase
runPhase(double seconds, const std::function<StepResult(Window &)> &step,
         bool *outputs_correct, const std::function<bool()> &between)
{
    Phase phase;
    const std::vector<int> cpus = pinnedCpus();
    const int ncpus =
        cpus.empty() ? static_cast<int>(std::thread::hardware_concurrency())
                     : static_cast<int>(cpus.size());
    const std::int64_t slice_ns =
        static_cast<std::int64_t>(seconds * 1e9 / phaseSlices);
    // Phase time: wall time minus the time spent in between().
    std::int64_t paused = 0;
    auto clock = [&] { return nowNs() - paused; };
    const std::int64_t start = clock();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t slice_end = start + slice_ns;
    Totals at_start;
    std::size_t latency_at_start = 0;
    std::int64_t slice_start = start;
    std::uint64_t steal_at_start = stealTicksOf(cpus);
    auto cut = [&] {
        Slice s;
        s.stealTicks = stealTicksOf(cpus) - steal_at_start;
        s.elapsedS = static_cast<double>(clock() - slice_start) / 1e9;
        s.cpus = ncpus;
        s.wallS = phase.wallS - at_start.wallS;
        s.cpuS = phase.cpuS - at_start.cpuS;
        s.ops = phase.ops - at_start.ops;
        s.firstLatency = latency_at_start;
        s.endLatency = phase.latencyMs.size();
        phase.slices.push_back(s);
        phase.stealTicks += s.stealTicks;
        at_start = phase;
        latency_at_start = phase.latencyMs.size();
    };
    std::uint64_t op = 0;
    std::int64_t now = start;
    do {
        Window w(phase, ++op);
        const StepResult r = step(w);
        phase.attempted += r.attempted;
        phase.ops += r.completed;
        phase.failed += r.failed;
        if (!r.outputsCorrect && outputs_correct)
            *outputs_correct = false;
        if (r.completed > 0)
            phase.latencyMs.push_back(r.latencyMs);
        now = clock();
        if (now >= slice_end) {
            cut();
            while (slice_end <= now)
                slice_end += slice_ns;
            if (between && now < deadline) {
                const std::int64_t t0 = nowNs();
                const bool go_on = between();
                paused += nowNs() - t0;
                if (!go_on)
                    return phase;
            }
            steal_at_start = stealTicksOf(cpus);
            slice_start = clock();
        }
    } while (now < deadline);
    if (phase.ops > at_start.ops)
        cut();
    return phase;
}

std::string
hostNoise(const Phase &phase)
{
    std::string model = "unknown";
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("model name", 0) == 0) {
                model = line.substr(line.find(':') + 2);
                break;
            }
        }
    }
    std::string load;
    {
        std::ifstream in("/proc/loadavg");
        std::string a, b, c;
        in >> a >> b >> c;
        load = a + " " + b + " " + c;
    }
    const double tick_ms = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    std::ostringstream out;
    out << "host: nproc=" << std::thread::hardware_concurrency()
        << " cpu=\"" << model << "\" steal_ms="
        << static_cast<double>(phase.stealTicks) * tick_ms
        << " (on the workload's CPUs, over the measured phase), loadavg="
        << load;
    return out.str();
}

double
referenceMs(int reps, const std::function<void()> &fn)
{
    fn();
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const std::int64_t t0 = nowNs();
        fn();
        t.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    return median(t);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

void
endToEnd(Report &report, const Phase &phase,
         const std::vector<double> &setup_s)
{
    report.metric("throughput_ops_s", phase.throughput(), "1/s");
    report.metric("latency_p50_ms", phase.latencyPercentile(50), "ms");
    report.metric("cpu_ms_per_op", phase.cpuMsPerOp(), "ms");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

const std::vector<std::pair<const char *, const char *>> &
layerMetrics()
{
    static const std::vector<std::pair<const char *, const char *>> all = {
        {"net.connect_ms", "ms"},
        {"net.tcp_connect_ms", "ms"},
        {"net.handshake_unexplained_ms", "ms"},
        {"net.drains_per_batch", "count"},
        {"net.frames_per_request", "count"},
        {"net.bytes_per_request", "B"},
        {"net.codec_us_per_request", "us"},
        {"net.drain_share", "ratio"},
        {"net.busy_per_request", "count"},
        {"sea.drain_ms", "ms"},
        {"sea.requests_per_drain", "count"},
        {"sea.audit_coalescing", "ratio"},
        {"sea.report_encode_us", "us"},
        {"sea.attest_ms", "ms"},
        {"sea.ca_issue_ms", "ms"},
        {"sea.verify_ms", "ms"},
        {"sea.cold_drain_ms", "ms"},
        {"sea.transport_key_exchanges", "count"},
        {"sea.shard_busy_ms", "ms"},
        {"sea.merge_ms", "ms"},
        {"sea.parallel_efficiency", "ratio"},
        {"sea.steals", "count"},
        {"sea.sim_busy_ms_per_op", "ms"},
        {"backend.run_us", "us"},
        {"tpm.quote_ms", "ms"},
        {"tpm.commands_per_op", "count"},
        {"crypto.rsa_sign_ms", "ms"},
        {"crypto.hmac_us_per_kib", "us"},
        {"crypto.keys_generated", "count"},
        {"machine.build_ms", "ms"},
        {"machine.shard_build_ms", "ms"},
        {"machine.rss_mb_per_shard", "MB"},
        {"store.put_us", "us"},
        {"store.append_ms", "ms"},
        {"store.fsync_ms", "ms"},
        {"store.counter_ms", "ms"},
        {"store.nv_write_ms", "ms"},
        {"store.fsyncs_per_commit", "count"},
        {"store.wal_bytes_per_commit", "B"},
        {"store.checkpoint_ms", "ms"},
        {"store.reopen_ms", "ms"},
        {"store.records_replayed", "count"},
        {"obs.trace_overhead_pct", "%"},
        {"obs.coverage_pct", "%"},
    };
    return all;
}

} // namespace perfbench
