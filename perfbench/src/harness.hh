/**
 * @file
 * Measurement harness shared by every perfbench workload: command-line
 * options, op windows (wall + process CPU), set-up samples, in-memory
 * span tracing, host probes and the result record main() prints.
 *
 * A workload is a closed loop on one caller thread. Each op runs inside
 * a Window; output checks run between windows, so they cost neither
 * throughput nor CPU per op. The end-to-end metrics come from untraced
 * windows; a traced run records spans around the benchmark's own calls
 * and the library's observer hooks and derives per-layer numbers.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Build everything the workload uses once, untimed, so the disk
     *  key cache holds every RSA key before a timed run. */
    bool prime = false;
    /** Self-test hook: make some gw-session batches name an unknown
     *  PAL, which the gateway refuses. */
    bool injectUnknownPal = false;
    /** Where traced runs write their spans. */
    std::string traceOut;
};

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process user+sys CPU seconds over all threads. */
double processCpuSeconds();

/** Peak resident set size of the process (VmHWM), MiB. */
double peakRssMb();

/** Current resident set size (VmRSS), MiB. */
double currentRssMb();

/** RSA key files in the on-disk key cache ($TMPDIR/mintcb-key-*.bin). */
std::size_t keyCacheFiles();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0,100] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** Mean of @p v (0 when empty). */
double mean(const std::vector<double> &v);

/**
 * One completed span. Spans of one op share its op id; a span's parent
 * is the id of the span that caused it (0 = none).
 */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t op = 0;
    std::uint32_t thread = 0;
};

/**
 * In-memory span recorder. Recording is off until enable(); observer
 * hooks on other threads check enabled() and attach their spans to the
 * op the caller thread has open (currentOp / currentSpan).
 */
class Tracer
{
  public:
    void enable(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint32_t add(const char *name, std::int64_t start,
                      std::int64_t end, std::uint32_t parent,
                      std::uint64_t op);
    /** Reserve an id for a span whose end is not known yet. */
    std::uint32_t reserve();
    /** Record a span under an id from reserve(). */
    void addWithId(std::uint32_t id, const char *name, std::int64_t start,
                   std::int64_t end, std::uint32_t parent,
                   std::uint64_t op);

    /** The op the caller thread is running, for cross-thread hooks. */
    std::atomic<std::uint64_t> currentOp{0};
    std::atomic<std::uint32_t> currentSpan{0};

    std::vector<Span> spans() const;

    /** Spans named @p name. */
    std::vector<Span> named(const char *name) const;

    /** Mean duration (ms) of spans named @p name; @p ops_only skips
     *  spans recorded outside an op (during set-up). */
    double meanMs(const char *name, bool ops_only = true) const;

    /** Total duration (ms) of spans named @p name (see meanMs). */
    double sumMs(const char *name, bool ops_only = true) const;

    /** One line per span name recorded inside ops: count, mean
     *  duration and mean self time (duration minus the part of the
     *  interval its child spans cover), ms. */
    std::vector<std::string> selfTimeTable() const;

    /**
     * Share of the time of op spans named @p op_name (set-up excluded)
     * that their child spans (by parent id) cover.
     */
    double coverage(const char *op_name) const;

    /** Chrome trace-event JSON of every span. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> nextId_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/** The process-wide tracer. */
Tracer &tracer();

/** RAII span on the caller thread: parent = the innermost open Scope
 *  (or the op span); a no-op while tracing is off. */
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *name_;
    std::int64_t start_ = 0;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    bool on_ = false;
};

/** Wall + CPU accumulated over op windows. */
struct Totals
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t ops = 0; //!< completed, checked ops
};

/** One slice of a measured phase. */
struct Slice : Totals
{
    double elapsedS = 0.0;        //!< wall time the slice spans
    int cpus = 1;                 //!< CPUs the workload ran on
    std::uint64_t stealTicks = 0; //!< steal on those CPUs
    std::size_t firstLatency = 0; //!< [first, end) of Phase::latencyMs
    std::size_t endLatency = 0;

    /** Share of the workload's CPU time the hypervisor took (steal)
     *  during the slice, capped at 0.9. */
    double stealShare() const;
};

/**
 * A measured phase: totals, slices of equal wall time, and per-op
 * latencies. This VM loses a varying share of its CPUs to neighbours
 * (steal time, 10-30% of a CPU for minutes at a time), which slows a
 * pinned thread by the same share. The end-to-end figures therefore
 * take each slice's steal share out of its wall time: throughput is the
 * median over slices of ops per steal-free window second, latency
 * percentiles are over op times scaled by their slice's steal-free
 * share. CPU time is not charged for stolen time and needs no
 * correction. Uncorrected figures print beside them.
 */
struct Phase : Totals
{
    std::uint64_t attempted = 0; //!< ops tried
    std::uint64_t failed = 0;    //!< failed or refused ops
    std::vector<double> latencyMs;
    std::vector<Slice> slices;
    std::uint64_t stealTicks = 0; //!< steal over all slices

    /** Median over slices of completed ops per steal-free second. */
    double throughput() const;
    /** Median over slices of window CPU ms per completed op. */
    double cpuMsPerOp() const;
    /** Percentile @p p of steal-free op latency. */
    double latencyPercentile(double p) const;
};

/** Slices per measured phase. */
inline constexpr int phaseSlices = 20;

/**
 * One op window. open() stamps wall and CPU, close() adds them to the
 * phase. While tracing, the window is also the op's root span.
 */
class Window
{
  public:
    Window(Phase &phase, std::uint64_t op_id);
    void open();
    void close();
    /** Duration of the last open()..close(), ms. */
    double lastMs() const { return lastMs_; }

  private:
    Phase &phase_;
    std::uint64_t op_;
    std::int64_t t0_ = 0;
    double cpu0_ = 0.0;
    std::uint32_t span_ = 0;
    double lastMs_ = 0.0;
};

/** Outcome of one closed-loop step. */
struct StepResult
{
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0; //!< ops whose output checked correct
    std::uint64_t failed = 0;    //!< refused or errored ops
    bool outputsCorrect = true;  //!< false: some output was wrong
    double latencyMs = 0.0;      //!< the caller's blocking call
};

/**
 * Run @p step in a closed loop for @p seconds of wall time (at least
 * one step), accumulating windows into a Phase. @p between, if set,
 * runs at every slice boundary but the last, outside any window; its
 * wall time does not count against @p seconds. It returns false to
 * stop the phase early.
 */
Phase runPhase(double seconds,
               const std::function<StepResult(Window &)> &step,
               bool *outputs_correct,
               const std::function<bool()> &between = {});

/**
 * Thread placement (hosts with at least 4 CPUs; elsewhere a no-op).
 * Each workload pins its threads to fixed CPUs for the whole run: the
 * caller on callerCpu, helper threads wherever the caller was pinned
 * when it created them (they inherit its mask). gw-session's reactor
 * shares the caller's CPU, so the two hand off without cross-CPU
 * wake-ups; svc-quoted's pool workers get CPUs of their own. Steal
 * time is read on the CPUs pinned so far.
 */

/** The caller thread's CPU. */
inline constexpr int callerCpu = 3;

/** Pin the calling thread (and threads it creates from now on). */
void pinThisThread(std::initializer_list<int> cpus);

/** Human-readable host-noise record: nproc, CPU model, steal, load. */
std::string hostNoise(const Phase &phase);

/** Time @p fn @p reps times after one warm call; median ms. */
double referenceMs(int reps, const std::function<void()> &fn);

/** Everything a workload reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit), in print order. */
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> notes; //!< printed before the JSON line

    void metric(const std::string &name, double value,
                const std::string &unit);
};

/** Fill the five end-to-end metrics from an untraced phase. */
void endToEnd(Report &report, const Phase &phase,
              const std::vector<double> &setup_s);

/** Per-layer metric names every traced run prints, with units. */
const std::vector<std::pair<const char *, const char *>> &layerMetrics();

/**
 * Fill the per-layer metrics: @p values holds what the workload
 * measured. Adds the reference timings every traced run shares (see
 * references.cc and store_reference.cc); a reference that fails sets
 * report.correct to false. A layer metric the workload does not
 * exercise prints as 0 and is named in a "layers not measured" note; a
 * non-finite value sets report.correct to false. crypto.keys_generated
 * counts key-cache files written since @p keys_before.
 */
void perLayer(Report &report, std::map<std::string, double> values,
              std::uint64_t seed, std::size_t keys_before);

/** Run every reference call once (priming the key cache for them). */
bool primeReferences();

/**
 * Store reference (store_reference.cc): a SealedStore in a private
 * work directory under $TMPDIR commits batches of 8 puts (128 B values
 * over 512 seed-chosen keys, auto-checkpoint every 64 commits), then
 * reopens with replay. Fills the store.* layers; reads back the last
 * committed values and checks that stateDigest() survives the reopen.
 * False (with a note) when any step or check fails.
 */
bool storeReference(std::uint64_t seed, std::map<std::string, double> &out,
                    std::vector<std::string> &notes);

/**
 * A workload: a rig the harness builds several times (set-up), then
 * drives in a closed loop one step at a time.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Drop the current rig, if any (untimed). */
    virtual void tearDown() = 0;
    /** Build a fresh rig through its first completed op. False (with a
     *  message on stderr) aborts the run. */
    virtual bool setUp() = 0;
    /** One closed-loop step; the op itself runs inside @p w. */
    virtual StepResult step(Window &w) = 0;
    /** The traced phase starts: snapshot counters for layers(). */
    virtual void beginTraced() {}
    /** Per-layer values from the traced phase @p traced. */
    virtual void layers(const Phase &traced,
                        std::map<std::string, double> &out) = 0;
    /** Post-run output checks; notes go beside the metrics. */
    virtual bool finish(std::vector<std::string> &notes) = 0;
};

std::unique_ptr<Workload> makeGwSession(const Options &opt);
std::unique_ptr<Workload> makeSvcQuoted(const Options &opt);

/** Set-ups before the warm-up. An untraced run also sets up again at
 *  every slice boundary of its measured phase, so the set-up samples
 *  (median = setup_s) span the whole run, like the op samples. */
inline constexpr int setupRepeats = 3;

/** Untimed closed-loop warm-up before the measured phase, seconds. */
inline constexpr double warmupSeconds = 0.5;

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
