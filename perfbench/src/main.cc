/**
 * @file
 * perfbench: host-time benchmark of shelfsim. One invocation runs one
 * workload (see workloads.hh and ../METRICS.md) for a fixed host-time
 * budget and prints every metric with its unit; the last stdout line
 * is one JSON object {correct, attempted, failed, metrics}.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--pins FILE] [--spans-out FILE]
 *             [--held-out] [--tiny]
 *   perfbench --print-fingerprint ...   one untimed operation
 *
 * --trace 0 measures the end-to-end metrics: repeated untraced
 * operations plus one fresh child process for peak memory. --trace 1
 * alternates untraced and traced operations and reports the
 * per-layer metrics, tracing overhead, and the time no span explains.
 */

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "sim/supervisor.hh"
#include "spans.hh"
#include "workloads.hh"

extern char **environ;

using namespace shelf;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

struct Args
{
    Options opt;
    double seconds = 10;
    bool trace = false;
    bool rssProbe = false;
    bool printFingerprint = false;
    std::string pins;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *why)
{
    fprintf(stderr,
            "perfbench: %s\n"
            "usage: perfbench --workload W --seed N --seconds S "
            "--trace 0|1 --work-dir DIR [--pins FILE] "
            "[--spans-out FILE] [--held-out] [--tiny] "
            "[--print-fingerprint]\n", why);
    exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.opt.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    bool haveWorkload = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        uint64_t u = 0;
        if (k == "--workload") {
            a.opt.workload = val();
            haveWorkload = true;
        } else if (k == "--seed") {
            if (!tryParseU64(val(), u))
                usage("--seed needs a whole number");
            a.opt.seed = u;
            haveSeed = true;
        } else if (k == "--seconds") {
            if (!tryParseDouble(val(), a.seconds) || a.seconds <= 0)
                usage("--seconds needs a positive number");
        } else if (k == "--trace") {
            std::string v = val();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--work-dir") {
            a.opt.workDir = val();
        } else if (k == "--pins") {
            a.pins = val();
        } else if (k == "--spans-out") {
            a.spansOut = val();
        } else if (k == "--held-out") {
            a.opt.heldOut = true;
        } else if (k == "--tiny") {
            a.opt.tiny = true;
        } else if (k == "--rss-probe") {
            a.rssProbe = true;
        } else if (k == "--print-fingerprint") {
            a.printFingerprint = true;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || a.opt.workDir.empty())
        usage("--workload, --seed and --work-dir are required");
    if (std::find(kWorkloadNames.begin(), kWorkloadNames.end(),
                  a.opt.workload) == kWorkloadNames.end())
        usage(("unknown workload " + a.opt.workload).c_str());
    return a;
}

// ------------------------------------------------------------ statistics

/** Cut points of @p v into @p n groups, as Python's
 * statistics.quantiles(v, n=n) computes them (exclusive method). */
std::vector<double>
quantiles(std::vector<double> v, int n)
{
    std::sort(v.begin(), v.end());
    int ld = static_cast<int>(v.size());
    if (ld < 2)
        return std::vector<double>(n - 1, ld ? v[0] : 0.0);
    int m = ld + 1;
    std::vector<double> out;
    for (int i = 1; i < n; ++i) {
        int j = std::clamp(i * m / n, 1, ld - 1);
        int delta = i * m - j * n;
        out.push_back((v[j - 1] * (n - delta) + v[j] * delta) / n);
    }
    return out;
}

/** One reported metric: its value and the samples behind it. */
struct Metric
{
    std::string unit;
    std::vector<double> samples;
    double value() const { return median(samples); }
};

// ------------------------------------------------------------------ host

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Host fingerprint recorded beside every result. */
std::string
hostJson(const Options &opt)
{
    JsonWriter w;
    w.beginObject();
    w.field("nproc", static_cast<uint64_t>(
                         std::thread::hardware_concurrency()));
    w.field("cpu", cpuModel());
#if defined(__clang__)
    w.field("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    w.field("compiler", std::string("gcc ") + __VERSION__);
#else
    w.field("compiler", "unknown");
#endif
#ifdef __OPTIMIZE__
    w.field("optimised", true);
#else
    w.field("optimised", false);
#endif
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("sweep_jobs", static_cast<uint64_t>(opt.jobs));
    w.endObject();
    return w.str();
}

// ------------------------------------------------------- fingerprints

/** The pinned fingerprint for this workload and seed, if any. */
std::string
pinnedFingerprint(const Args &a)
{
    if (a.pins.empty() || a.opt.tiny)
        return "";
    std::ifstream in(a.pins);
    fatal_if(!in, "cannot read %s", a.pins.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue doc;
    std::string err;
    fatal_if(!tryParseJson(ss.str(), doc, &err), "%s: %s",
             a.pins.c_str(), err.c_str());
    const JsonValue *w = doc.find(a.opt.workload);
    std::string key = csprintf("%s:%llu",
                               a.opt.heldOut ? "held-out" : "seed",
                               (unsigned long long)a.opt.seed);
    const JsonValue *fp = w ? w->find(key) : nullptr;
    return fp && fp->isString() ? fp->raw : "";
}

// --------------------------------------------------------- peak memory

/**
 * Run one untraced operation in a fresh child process and return its
 * peak resident set in MiB; the child's simulation count and
 * fingerprint land in @p probe.
 */
double
peakRssMiB(const Options &opt, OpResult &probe)
{
    std::vector<std::string> args = {
        selfExe(), "--rss-probe", "--workload", opt.workload,
        "--seed", std::to_string(opt.seed), "--work-dir", opt.workDir,
    };
    if (opt.heldOut)
        args.push_back("--held-out");
    if (opt.tiny)
        args.push_back("--tiny");
    std::vector<char *> argv;
    for (auto &s : args)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    int fds[2];
    fatal_if(pipe2(fds, O_CLOEXEC) != 0, "pipe: %s", strerror(errno));
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    pid_t pid = 0;
    int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    fatal_if(rc != 0, "spawn %s: %s", argv[0], strerror(rc));
    std::string out;
    char buf[4096];
    ssize_t got;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0 ||
           (got < 0 && errno == EINTR))
        if (got > 0)
            out.append(buf, static_cast<size_t>(got));
    close(fds[0]);
    int status = 0;
    struct rusage ru = {};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    fatal_if(!WIFEXITED(status) || WEXITSTATUS(status) != 0,
             "peak-memory probe failed: %s", out.c_str());
    // The child's last line: "rss-probe <sims> <fingerprint>".
    size_t at = out.rfind("rss-probe ");
    fatal_if(at == std::string::npos, "peak-memory probe printed no "
             "result: %s", out.c_str());
    std::istringstream last(out.substr(at));
    std::string tag;
    last >> tag >> probe.sims;
    std::getline(last >> std::ws, probe.fingerprint);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

// ------------------------------------------------------- CPU rotation

/**
 * Pins the calling thread to each allowed CPU in turn, one CPU per
 * repetition. On a shared host one CPU can run slow for tens of
 * seconds while a neighbour keeps its sibling busy; a single-threaded
 * operation the scheduler leaves on that CPU would be slow for the
 * whole run. Rotating spreads the repetitions evenly over the CPUs,
 * so the median does not depend on where the run happened to land.
 * The original mask is restored on destruction.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original);
        fatal_if(sched_getaffinity(0, sizeof(original), &original) != 0,
                 "sched_getaffinity: %s", strerror(errno));
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original))
                cpus.push_back(c);
    }
    ~CpuRotation() { sched_setaffinity(0, sizeof(original), &original); }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move the calling thread to the next CPU. */
    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t original;
    std::vector<int> cpus;
    size_t turn = 0;
};

// ----------------------------------------------- serialization timing

/** Microseconds per SystemResult toJson + fromJson round trip at full
 * precision; a round trip that changes a byte is a problem. */
double
resultRoundTripUs(const std::vector<SystemResult> &results,
                  std::vector<std::string> &problems)
{
    if (results.empty())
        return 0;
    size_t reps = std::max<size_t>(1, 256 / results.size());
    std::vector<SystemResult> back(results.size());
    auto t0 = Clock::now();
    for (size_t r = 0; r < reps; ++r)
        for (size_t i = 0; i < results.size(); ++i)
            back[i] = SystemResult::fromJson(
                results[i].toJson(JsonWriter::kFullPrecision));
    double s = secondsSince(t0);
    for (size_t i = 0; i < results.size(); ++i) {
        if (back[i].toJson(JsonWriter::kFullPrecision) !=
            results[i].toJson(JsonWriter::kFullPrecision)) {
            problems.push_back("result JSON round trip is not exact");
            break;
        }
    }
    return s * 1e6 / static_cast<double>(reps * results.size());
}

/** Microseconds per canonicalJobKey call. */
double
specKeyUs(const std::vector<validate::SweepJobSpec> &specs)
{
    if (specs.empty())
        return 0;
    size_t reps = std::max<size_t>(1, 256 / specs.size());
    size_t bytes = 0;
    auto t0 = Clock::now();
    for (size_t r = 0; r < reps; ++r)
        for (const auto &spec : specs)
            bytes += validate::canonicalJobKey(spec).size();
    double s = secondsSince(t0);
    fatal_if(bytes == 0, "empty canonical job keys");
    return s * 1e6 / static_cast<double>(reps * specs.size());
}

// ------------------------------------------------------ layer metrics

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer metrics of one traced operation. */
std::map<std::string, double>
layerMetrics(const OpResult &op, const std::map<std::string, double> &self,
             const std::string &name)
{
    const LayerCounts &n = op.counts;
    std::map<std::string, double> m;
    m["workload.generate_s"] = get(self, "workload.generate");
    m["workload.insts_generated"] = static_cast<double>(n.generated);
    m["workload.useful_frac"] = ratio(static_cast<double>(n.read),
                                      static_cast<double>(n.generated +
                                                          n.loaded));
    double load = get(self, "workload.trace_load");
    m["workload.trace_load_s"] = load;
    m["workload.trace_mb_per_s"] =
        ratio(static_cast<double>(n.loadedBytes) / 1e6, load);
    m["mem.functional_warm_s"] = get(self, "mem.functional_warm");
    m["mem.l1d_miss_rate"] = ratio(n.l1dMisses, n.l1dAccesses);
    m["mem.l2_miss_rate"] = ratio(n.l2Misses, n.l2Accesses);
    double measure = get(self, "core.measure");
    m["core.warmup_s"] = get(self, "core.warmup");
    m["core.measure_s"] = measure;
    // Host time per simulated event is only known where the core
    // loop ran in this process.
    bool inProcess = measure > 0;
    m["core.ns_per_cycle"] =
        inProcess ? ratio(measure * 1e9, static_cast<double>(n.cycles))
                  : 0.0;
    m["core.ns_per_retired"] =
        inProcess ? ratio(measure * 1e9, static_cast<double>(n.retired))
                  : 0.0;
    m["core.quiesce_skip_frac"] =
        ratio(static_cast<double>(n.skipped), static_cast<double>(n.cycles));
    m["core.squash_frac"] = ratio(static_cast<double>(n.squashed),
                                  static_cast<double>(n.fetched));
    m["core.cycles"] = static_cast<double>(n.cycles);
    m["core.retired"] = static_cast<double>(n.retired);
    m["system.build_s"] = get(self, "system.build");
    m["ref.precompute_s"] = get(self, "ref.precompute");
    m["ref.sims"] = static_cast<double>(n.refSims);

    double cells = static_cast<double>(op.cellWalls.size());
    double busy = 0;
    for (double w : op.cellWalls)
        busy += w;
    std::vector<double> deciles = quantiles(op.cellWalls, 10);
    m["sweep.cell_p50_s"] = median(op.cellWalls);
    m["sweep.cell_p90_s"] = op.cellWalls.empty() ? 0.0 : deciles[8];
    double workers = static_cast<double>(op.workers);
    m["sweep.busy_frac"] = ratio(busy, workers * op.batchWallS);
    m["sweep.straggler_s"] =
        op.cellWalls.empty() ? 0.0 : op.batchWallS - busy / workers;
    m["sweep.attempts_per_cell"] = ratio(op.attempts, cells);

    m["spawn.cell_overhead_ms"] = op.spawnOverheadMs;
    m["journal.bytes"] = static_cast<double>(op.journalBytes);
    m["journal.replay_s"] = op.journalReplayS;
    m["journal.replayed"] = static_cast<double>(op.journalReplayed);
    m["trace.unattributed_s"] = get(self, "op." + name);
    return m;
}

const std::map<std::string, std::string> kLayerUnits = {
    { "workload.generate_s", "s" },
    { "workload.insts_generated", "count" },
    { "workload.useful_frac", "frac" },
    { "workload.trace_load_s", "s" },
    { "workload.trace_mb_per_s", "MB/s" },
    { "mem.functional_warm_s", "s" },
    { "mem.l1d_miss_rate", "frac" },
    { "mem.l2_miss_rate", "frac" },
    { "core.warmup_s", "s" },
    { "core.measure_s", "s" },
    { "core.ns_per_cycle", "ns" },
    { "core.ns_per_retired", "ns" },
    { "core.quiesce_skip_frac", "frac" },
    { "core.squash_frac", "frac" },
    { "core.cycles", "count" },
    { "core.retired", "count" },
    { "system.build_s", "s" },
    { "ref.precompute_s", "s" },
    { "ref.sims", "count" },
    { "sweep.cell_p50_s", "s" },
    { "sweep.cell_p90_s", "s" },
    { "sweep.busy_frac", "frac" },
    { "sweep.straggler_s", "s" },
    { "sweep.attempts_per_cell", "count" },
    { "spawn.cell_overhead_ms", "ms" },
    { "serialize.result_us", "us" },
    { "serialize.spec_key_us", "us" },
    { "journal.bytes", "bytes" },
    { "journal.replay_s", "s" },
    { "journal.replayed", "count" },
    { "trace.overhead_frac", "frac" },
    { "trace.unattributed_s", "s" },
    { "failed_frac", "frac" },
};

// ------------------------------------------------------------- checking

/** Correctness bookkeeping across every simulation of the run. */
struct Checker
{
    std::string pinned;   ///< pinned fingerprint ("" if none)
    std::string expected; ///< what every operation must produce
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    check(const OpResult &op, const char *what)
    {
        attempted += op.sims;
        failed += op.quarantined;
        if (expected.empty())
            expected = op.fingerprint;
        bool bad = op.fingerprint != expected || !op.problems.empty();
        if (bad) {
            // A wrong operation output fails all its simulations.
            failed += op.sims - op.quarantined;
            if (op.fingerprint != expected)
                problems.push_back(csprintf(
                    "%s fingerprint %s, expected %s", what,
                    op.fingerprint.c_str(), expected.c_str()));
            for (const auto &p : op.problems)
                problems.push_back(csprintf("%s: %s", what, p.c_str()));
        }
    }
};

void
printMetric(const std::string &name, const Metric &m)
{
    std::vector<double> q = quantiles(m.samples, 4);
    printf("%-28s %16.6g %-8s (q1 %.6g, q3 %.6g, n=%zu)\n",
           name.c_str(), m.value(), m.unit.c_str(), q[0], q[2],
           m.samples.size());
}

std::string
resultLine(const Checker &ck, const std::map<std::string, Metric> &ms)
{
    JsonWriter w(JsonWriter::kFullPrecision);
    w.beginObject();
    w.field("correct", ck.failed == 0 && ck.problems.empty());
    w.field("attempted", ck.attempted);
    w.field("failed", ck.failed);
    w.beginObject("metrics");
    for (const auto &[name, m] : ms) {
        w.beginObject(name);
        w.field("value", m.value());
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    // Isolated sweep cells re-exec this binary as their worker.
    if (int rc = 0; maybeRunSweepWorker(argc, argv, &rc))
        return rc;

    Args a = parseArgs(argc, argv);
    fs::create_directories(a.opt.workDir);
    std::unique_ptr<Workload> wl = makeWorkload(a.opt);

    if (a.rssProbe) {
        wl->prepare(false);
        OpResult op = wl->run(nullptr, 0);
        printf("rss-probe %llu %s\n", (unsigned long long)op.sims,
               op.fingerprint.c_str());
        return op.problems.empty() ? 0 : 1;
    }

    std::string host = hostJson(a.opt);
    printf("host %s\n", host.c_str());
    printf("workload %s, seed %llu%s (simulation seed %llu)%s\n",
           a.opt.workload.c_str(), (unsigned long long)a.opt.seed,
           a.opt.heldOut ? " held-out" : "",
           (unsigned long long)simSeed(a.opt),
           a.opt.tiny ? ", tiny windows" : "");

    auto prepStart = Clock::now();
    wl->prepare(true);
    printf("prepared in %.3f s\n", secondsSince(prepStart));

    if (a.printFingerprint) {
        OpResult op = wl->run(nullptr, 0);
        std::string expect = wl->expectedFingerprint();
        bool ok = op.problems.empty() &&
            (expect.empty() || expect == op.fingerprint);
        printf("fingerprint %s\n", op.fingerprint.c_str());
        return ok ? 0 : 1;
    }

    Checker ck;
    ck.pinned = pinnedFingerprint(a);
    ck.expected = ck.pinned;
    std::string prepared = wl->expectedFingerprint();
    if (!prepared.empty()) {
        if (ck.expected.empty())
            ck.expected = prepared;
        else if (prepared != ck.expected)
            ck.problems.push_back("prepared reference fingerprint " +
                                  prepared + " differs from pinned " +
                                  ck.expected);
    }

    std::map<std::string, Metric> metrics;
    auto start = Clock::now();
    if (!a.trace) {
        OpResult probe;
        double rss = peakRssMiB(a.opt, probe);
        ck.check(probe, "peak-memory probe");
        metrics["peak_rss_mb"] = { "MiB", { rss } };
        Metric wall{ "s", {} }, setup{ "s", {} }, kips{ "kinst/s", {} };
        std::optional<CpuRotation> rotation;
        if (!wl->parallel())
            rotation.emplace();
        start = Clock::now();
        while (wall.samples.size() < 3 ||
               secondsSince(start) < a.seconds) {
            if (rotation)
                rotation->next();
            OpResult op = wl->run(nullptr, 0);
            ck.check(op, "operation");
            wall.samples.push_back(op.wallS);
            setup.samples.push_back(op.setupS);
            kips.samples.push_back(
                static_cast<double>(op.retired) / op.wallS / 1e3);
            if (!op.info.empty() && wall.samples.size() == 1)
                printf("%s\n", op.info.c_str());
        }
        metrics["wall_s"] = wall;
        metrics["setup_s"] = setup;
        metrics["sim_kips"] = kips;
    } else {
        Tracer tracer;
        std::vector<double> untracedWall, tracedWall;
        std::map<std::string, Metric> layer;
        uint64_t run = 0;
        std::optional<CpuRotation> rotation;
        if (!wl->parallel())
            rotation.emplace();
        while (run < 2 || secondsSince(start) < a.seconds) {
            if (rotation)
                rotation->next();
            OpResult plain = wl->run(nullptr, 0);
            ck.check(plain, "untraced operation");
            untracedWall.push_back(plain.wallS);

            ++run;
            OpResult op = wl->run(&tracer, run);
            ck.check(op, "traced operation");
            tracedWall.push_back(op.wallS);
            double resultUs = 0, keyUs = 0;
            {
                ScopedSpan s(&tracer, "serialize", kNoParent, run);
                resultUs = resultRoundTripUs(op.results, ck.problems);
                keyUs = specKeyUs(op.specs);
            }
            auto self = selfTimes(tracer.spans(), run);
            auto m = layerMetrics(op, self, a.opt.workload);
            m["serialize.result_us"] = resultUs;
            m["serialize.spec_key_us"] = keyUs;
            for (const auto &[k, v] : m)
                layer[k].samples.push_back(v);
        }
        for (auto &[k, metric] : layer)
            metric.unit = kLayerUnits.at(k);
        layer["trace.overhead_frac"] = {
            "frac", { median(tracedWall) / median(untracedWall) - 1 }
        };
        if (!a.spansOut.empty()) {
            fs::create_directories(
                fs::path(a.spansOut).parent_path().empty()
                    ? fs::path(".")
                    : fs::path(a.spansOut).parent_path());
            std::ofstream out(a.spansOut);
            out << tracer.toJson(host) << "\n";
            fatal_if(!out, "cannot write %s", a.spansOut.c_str());
            printf("spans written to %s\n", a.spansOut.c_str());
        }
        metrics = layer;
    }

    double failedFrac = ck.attempted
        ? static_cast<double>(ck.failed) / ck.attempted : 0.0;
    if (a.trace)
        metrics["failed_frac"] = { "frac", { failedFrac } };
    printf("fingerprint %s (%s)\n", ck.expected.c_str(),
           ck.pinned.empty() ? "no pinned value for this seed; checked "
                               "for repeatability and cross-checks"
                             : "pinned");
    printf("measured %.3f s; attempted %llu simulations, failed %llu "
           "(failed_frac %.6g)\n", secondsSince(start),
           (unsigned long long)ck.attempted,
           (unsigned long long)ck.failed, failedFrac);
    for (const auto &p : ck.problems)
        printf("PROBLEM: %s\n", p.c_str());
    for (const auto &[name, m] : metrics)
        printMetric(name, m);
    printf("%s\n", resultLine(ck, metrics).c_str());
    fflush(stdout);
    return ck.failed == 0 && ck.problems.empty() ? 0 : 1;
}
