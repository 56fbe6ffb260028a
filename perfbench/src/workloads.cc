#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "metrics/throughput.hh"
#include "sim/experiment.hh"
#include "sim/launcher.hh"
#include "sim/supervisor.hh"
#include "workload/spec2006.hh"
#include "workload/trace_io.hh"

using namespace shelf;
namespace fs = std::filesystem;

namespace perfbench
{

const std::vector<std::string> kWorkloadNames = {
    "run-4t", "sweep-fig10", "sweep-isolated", "replay-cmp",
};

uint64_t
simSeed(const Options &opt)
{
    // Held-out seeds start far above any seed a tuning loop uses.
    constexpr uint64_t kHeldOutBase = 1000001;
    return (opt.heldOut ? kHeldOutBase : 1) + opt.seed;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    fatal_if(n <= 0, "cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return buf;
}

namespace
{

uint64_t
retiredOf(const SystemResult &r)
{
    uint64_t n = 0;
    for (const auto &t : r.threads)
        n += t.instructions;
    return n;
}

std::string
runFingerprint(const SystemResult &r)
{
    std::string s = "retired=";
    for (size_t t = 0; t < r.threads.size(); ++t)
        s += csprintf("%s%llu", t ? "," : "",
                      (unsigned long long)r.threads[t].instructions);
    return s + csprintf(" cycles=%llu", (unsigned long long)r.cycles);
}

/** A job spec describing a single run, for the key microbenchmark. */
validate::SweepJobSpec
runSpec(const SystemConfig &cfg)
{
    validate::SweepJobSpec spec;
    spec.core = cfg.core;
    for (const auto &b : cfg.benchmarks)
        spec.mixBenchmarks.push_back(spec2006Index(b));
    spec.numCores = cfg.numCores;
    spec.allocation = cfg.allocation;
    spec.warmupCycles = cfg.warmupCycles;
    spec.measureCycles = cfg.measureCycles;
    spec.seed = cfg.seed;
    return spec;
}

/** Fold a traced single simulation into @p op. */
void
takeDrive(OpResult &op, DriveOutcome d)
{
    op.sims = 1;
    op.fingerprint = runFingerprint(d.result);
    op.retired = retiredOf(d.result);
    op.counts.add(d.counts);
    if (d.wrapped)
        op.problems.push_back("a thread wrapped around its trace");
    op.results.push_back(std::move(d.result));
}

// ---------------------------------------------------------------- run-4t

class RunWorkload : public Workload
{
  public:
    explicit RunWorkload(const Options &o) : opt(o) {}

    OpResult
    run(Tracer *tracer, uint64_t id) override
    {
        OpResult op;
        auto t0 = Clock::now();
        if (tracer) {
            ScopedSpan root(tracer, "op.run-4t", kNoParent, id);
            SystemConfig cfg = config();
            op.specs.push_back(runSpec(cfg));
            size_t len = autoTraceLength(cfg);
            for (unsigned t = 0; t < cfg.benchmarks.size(); ++t) {
                ScopedSpan g(tracer, "workload.generate", root.id(), id);
                cfg.externalTraces.push_back(
                    generateThreadTrace(cfg, t, len));
                op.counts.generated += len;
            }
            takeDrive(op, driveSystem(std::move(cfg), tracer, root.id(),
                                      id));
        } else {
            System sys(config());
            op.setupS = secondsSince(t0);
            SystemResult r = sys.run();
            op.sims = 1;
            op.fingerprint = runFingerprint(r);
            op.retired = retiredOf(r);
        }
        op.wallS = secondsSince(t0);
        return op;
    }

  private:
    SystemConfig
    config() const
    {
        SystemConfig cfg;
        cfg.core = shelfCore(4, true);
        cfg.benchmarks = { "mcf", "gcc", "hmmer", "lbm" };
        cfg.seed = simSeed(opt);
        cfg.warmupCycles = opt.tiny ? 1000 : 4000;
        cfg.measureCycles = opt.tiny ? 8000 : 640000;
        return cfg;
    }

    Options opt;
};

// ---------------------------------------------------------------- sweeps

struct SweepPlan
{
    std::vector<CoreParams> configs;
    std::vector<WorkloadMix> mixes;
    SimControls ctl;
};

SweepPlan
sweepPlan(const Options &opt, std::vector<CoreParams> configs)
{
    SweepPlan plan;
    plan.configs = std::move(configs);
    plan.mixes = standardMixes(4);
    if (opt.tiny)
        plan.mixes.resize(4);
    plan.ctl.warmupCycles = opt.tiny ? 500 : 4000;
    plan.ctl.measureCycles = opt.tiny ? 2000 : 16000;
    plan.ctl.seed = simSeed(opt);
    return plan;
}

/** Mix-major job specs, as the figure harnesses build them. */
std::vector<validate::SweepJobSpec>
sweepSpecs(const SweepPlan &plan)
{
    std::vector<validate::SweepJobSpec> specs;
    for (const auto &mix : plan.mixes) {
        for (const auto &cfg : plan.configs) {
            validate::SweepJobSpec spec;
            spec.core = cfg;
            spec.mixBenchmarks = mix.benchmarks;
            spec.warmupCycles = plan.ctl.warmupCycles;
            spec.measureCycles = plan.ctl.measureCycles;
            spec.seed = plan.ctl.seed;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

/**
 * Front half of a sweep, up to the moment the cell batch is
 * dispatched: job specs, then the single-thread references on the
 * worker pool. Returns the reference cache the rows normalize by.
 */
std::unique_ptr<STReference>
sweepSetup(const SweepPlan &plan, unsigned jobs, OpResult &op,
           Tracer *tracer, int64_t parent, uint64_t id)
{
    {
        ScopedSpan s(tracer, "sweep.specs", parent, id);
        op.specs = sweepSpecs(plan);
    }
    auto ref = std::make_unique<STReference>(plan.ctl);
    {
        ScopedSpan s(tracer, "ref.precompute", parent, id);
        ref->precompute(plan.mixes, jobs);
    }
    std::set<size_t> benches;
    for (const auto &mix : plan.mixes)
        benches.insert(mix.benchmarks.begin(), mix.benchmarks.end());
    for (size_t b : benches) {
        // A reference run measures exactly measureCycles, so its
        // retired count is its IPC times that.
        op.retired += static_cast<uint64_t>(std::llround(
            ref->ipc(b) * static_cast<double>(plan.ctl.measureCycles)));
    }
    op.sims += benches.size();
    op.counts.refSims += benches.size();
    return ref;
}

/** Run the cell batch; the launcher factory receives the batch span
 * so cell spans can hang off it. */
std::vector<JobOutcome>
runBatch(SupervisorOptions so, const std::vector<validate::SweepJobSpec>
             &specs, OpResult &op, Tracer *tracer, int64_t parent,
         uint64_t id,
         const std::function<std::shared_ptr<WorkerLauncher>(int64_t)>
             &launcher)
{
    ScopedSpan s(tracer, "sweep.batch", parent, id);
    if (launcher)
        so.launcher = launcher(s.id());
    auto t0 = Clock::now();
    std::vector<JobOutcome> outcomes = SweepSupervisor(so).run(specs);
    op.batchWallS = secondsSince(t0);
    op.workers = so.jobs;
    for (const JobOutcome &oc : outcomes) {
        op.cellWalls.push_back(oc.wallSeconds);
        op.attempts += oc.attempts;
        op.quarantined += !oc.ok();
        if (oc.ok())
            op.retired += retiredOf(oc.result);
    }
    op.sims += outcomes.size();
    return outcomes;
}

/** One line per cell, every double at full precision. */
std::string
sweepRows(const SweepPlan &plan, const std::vector<JobOutcome> &outcomes,
          STReference &ref)
{
    std::string rows;
    size_t ncfg = plan.configs.size();
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const WorkloadMix &mix = plan.mixes[i / ncfg];
        rows += mix.name() + " " + plan.configs[i % ncfg].name;
        const JobOutcome &oc = outcomes[i];
        if (!oc.ok()) {
            rows += " QUARANTINED\n";
            continue;
        }
        rows += csprintf(" stp=%.17g ipc=", stpOf(oc.result, mix, ref));
        for (size_t t = 0; t < oc.result.threads.size(); ++t)
            rows += csprintf("%s%.17g", t ? "," : "",
                             oc.result.threads[t].ipc);
        rows += "\n";
    }
    return rows;
}

std::string
rowsFingerprint(const std::string &rows, size_t cells)
{
    return csprintf("rows=%016llx cells=%zu",
                    (unsigned long long)fnv1a64(rows), cells);
}

/**
 * In-process launcher for the traced sweep: runs each cell through
 * the phase-by-phase traced path and hands the supervisor the result
 * at full precision, so cells keep the supervisor's bookkeeping
 * (JobOutcome::wallSeconds, attempts) while every layer inside a cell
 * gets its own span.
 */
class TracedCellLauncher : public WorkerLauncher
{
  public:
    TracedCellLauncher(Tracer *t, int64_t batch, uint64_t run)
        : tracer(t), batchSpan(batch), runId(run)
    {}

    LaunchResult
    launch(const std::string &specJson, double) override
    {
        ScopedSpan cell(tracer, "sweep.cell", batchSpan, runId);
        validate::SweepJobSpec spec =
            validate::SweepJobSpec::fromJson(specJson);
        // The configuration tryRunSweepJob builds for a generator
        // cell.
        SystemConfig cfg;
        cfg.core = spec.core;
        cfg.core.validate();
        cfg.seed = spec.seed;
        cfg.warmupCycles = static_cast<Cycle>(spec.warmupCycles);
        cfg.measureCycles = static_cast<Cycle>(spec.measureCycles);
        for (size_t b : spec.mixBenchmarks)
            cfg.benchmarks.push_back(spec2006Profiles()[b].name);
        LayerCounts counts;
        size_t len = autoTraceLength(cfg);
        for (unsigned t = 0; t < cfg.benchmarks.size(); ++t) {
            ScopedSpan g(tracer, "workload.generate", cell.id(), runId);
            cfg.externalTraces.push_back(
                generateThreadTrace(cfg, t, len));
            counts.generated += len;
        }
        DriveOutcome d =
            driveSystem(std::move(cfg), tracer, cell.id(), runId);
        counts.add(d.counts);
        {
            std::lock_guard<std::mutex> lk(m);
            total.add(counts);
        }
        LaunchResult r;
        r.ok = true;
        r.resultJson = d.result.toJson(JsonWriter::kFullPrecision);
        return r;
    }

    bool healthy(double, std::string &) override { return true; }
    const std::string &name() const override { return name_; }

    LayerCounts
    counts() const
    {
        std::lock_guard<std::mutex> lk(m);
        return total;
    }

  private:
    Tracer *tracer;
    int64_t batchSpan;
    uint64_t runId;
    std::string name_ = "traced-in-process";
    mutable std::mutex m;
    LayerCounts total; ///< guarded by m
};

/** Wraps a launcher so every launch is one "sweep.cell" span. */
class SpanLauncher : public WorkerLauncher
{
  public:
    SpanLauncher(std::shared_ptr<WorkerLauncher> in, Tracer *t,
                 int64_t batch, uint64_t run)
        : inner(std::move(in)), tracer(t), batchSpan(batch), runId(run)
    {}

    LaunchResult
    launch(const std::string &specJson, double timeout) override
    {
        ScopedSpan cell(tracer, "sweep.cell", batchSpan, runId);
        return inner->launch(specJson, timeout);
    }

    bool
    healthy(double deadline, std::string &why) override
    {
        return inner->healthy(deadline, why);
    }
    const std::string &name() const override { return inner->name(); }

  private:
    std::shared_ptr<WorkerLauncher> inner;
    Tracer *tracer;
    int64_t batchSpan;
    uint64_t runId;
};

class Fig10Workload : public Workload
{
  public:
    explicit Fig10Workload(const Options &o)
        : opt(o),
          plan(sweepPlan(o, { baseCore64(4), shelfCore(4, false),
                              shelfCore(4, true), baseCore128(4) }))
    {}

    bool parallel() const override { return true; }

    OpResult
    run(Tracer *tracer, uint64_t id) override
    {
        OpResult op;
        auto t0 = Clock::now();
        {
            ScopedSpan root(tracer, "op.sweep-fig10", kNoParent, id);
            auto ref = sweepSetup(plan, opt.jobs, op, tracer, root.id(),
                                  id);
            op.setupS = secondsSince(t0);
            SupervisorOptions so;
            so.jobs = opt.jobs;
            std::shared_ptr<TracedCellLauncher> cells;
            if (tracer)
                so.isolate = true; // cells go through the launcher
            auto outcomes = runBatch(
                so, op.specs, op, tracer, root.id(), id,
                [&](int64_t batch) -> std::shared_ptr<WorkerLauncher> {
                    if (!tracer)
                        return nullptr;
                    cells = std::make_shared<TracedCellLauncher>(
                        tracer, batch, id);
                    return cells;
                });
            ScopedSpan rs(tracer, "sweep.rows", root.id(), id);
            std::string rows = sweepRows(plan, outcomes, *ref);
            op.fingerprint = rowsFingerprint(rows, outcomes.size());
            op.info = gainLine(outcomes, *ref);
            if (cells)
                op.counts.add(cells->counts());
            for (auto &oc : outcomes)
                op.results.push_back(std::move(oc.result));
        }
        op.wallS = secondsSince(t0);
        return op;
    }

  private:
    /** Geomean STP gain of shelf-opt over base64, beside the paper's
     * figure (information only: the model is unvalidated). */
    std::string
    gainLine(const std::vector<JobOutcome> &outcomes, STReference &ref)
    {
        std::vector<double> ratios;
        size_t ncfg = plan.configs.size();
        for (size_t m = 0; m < plan.mixes.size(); ++m) {
            const JobOutcome &base = outcomes[m * ncfg + 0];
            const JobOutcome &shelf = outcomes[m * ncfg + 2];
            if (!base.ok() || !shelf.ok())
                return "";
            ratios.push_back(stpOf(shelf.result, plan.mixes[m], ref) /
                             stpOf(base.result, plan.mixes[m], ref));
        }
        return csprintf("STP gain of shelf64+64-opt over base64: "
                        "%+.1f%% geomean over %zu mixes (paper: +11.5%%; "
                        "information only, the model is not validated "
                        "against hardware)",
                        (geomean(ratios) - 1) * 100, ratios.size());
    }

    Options opt;
    SweepPlan plan;
};

class IsolatedWorkload : public Workload
{
  public:
    explicit IsolatedWorkload(const Options &o)
        : opt(o), plan(sweepPlan(o, { shelfCore(4, true) }))
    {}

    void
    prepare(bool record) override
    {
        if (!record)
            return;
        // The same sweep in-process: the rows the isolated pass must
        // reproduce byte for byte, and the in-process cell times.
        OpResult op;
        auto ref = sweepSetup(plan, opt.jobs, op, nullptr, kNoParent, 0);
        SupervisorOptions so;
        so.jobs = opt.jobs;
        auto outcomes =
            runBatch(so, op.specs, op, nullptr, kNoParent, 0, nullptr);
        inProcessRows = sweepRows(plan, outcomes, *ref);
        cellMedian = median(op.cellWalls);
    }

    std::string
    expectedFingerprint() const override
    {
        return inProcessRows.empty()
            ? ""
            : rowsFingerprint(inProcessRows, plan.mixes.size());
    }

    bool parallel() const override { return true; }

    OpResult
    run(Tracer *tracer, uint64_t id) override
    {
        OpResult op;
        std::string journal = csprintf("%s/journal-%d-%llu.jsonl",
                                       opt.workDir.c_str(), (int)getpid(),
                                       (unsigned long long)id);
        fs::remove(journal);
        auto t0 = Clock::now();
        {
            ScopedSpan root(tracer, "op.sweep-isolated", kNoParent, id);
            auto ref = sweepSetup(plan, opt.jobs, op, tracer, root.id(),
                                  id);
            op.setupS = secondsSince(t0);
            SupervisorOptions so;
            so.jobs = opt.jobs;
            so.isolate = true;
            so.journalPath = journal;
            auto outcomes = runBatch(
                so, op.specs, op, tracer, root.id(), id,
                [&](int64_t batch) -> std::shared_ptr<WorkerLauncher> {
                    if (!tracer)
                        return nullptr;
                    return std::make_shared<SpanLauncher>(
                        std::make_shared<LocalSpawnLauncher>(selfExe(),
                                                             ""),
                        tracer, batch, id);
                });
            std::string rows;
            {
                ScopedSpan rs(tracer, "sweep.rows", root.id(), id);
                rows = sweepRows(plan, outcomes, *ref);
            }
            op.fingerprint = rowsFingerprint(rows, outcomes.size());
            if (cellMedian > 0)
                op.spawnOverheadMs =
                    (median(op.cellWalls) - cellMedian) * 1e3;
            if (!inProcessRows.empty() && rows != inProcessRows)
                op.problems.push_back(
                    "isolated rows differ from in-process rows");
            op.journalBytes = fs::file_size(journal);
            // Cells ran in worker processes; the results they sent
            // back still carry the simulated counts.
            for (const JobOutcome &oc : outcomes) {
                op.counts.cycles += oc.result.cycles;
                op.counts.retired += retiredOf(oc.result);
                op.counts.fetched += oc.result.events.fetchedInsts;
                op.counts.squashed += oc.result.events.squashedInsts;
            }

            ScopedSpan rs(tracer, "journal.resume", root.id(), id);
            auto t1 = Clock::now();
            so.resume = true;
            auto replayed = SweepSupervisor(so).run(op.specs);
            op.journalReplayS = secondsSince(t1);
            for (const JobOutcome &oc : replayed)
                op.journalReplayed += oc.fromJournal;
            if (op.journalReplayed != replayed.size()) {
                op.problems.push_back(csprintf(
                    "resume pass executed %zu cells",
                    replayed.size() - op.journalReplayed));
            }
            if (sweepRows(plan, replayed, *ref) != rows)
                op.problems.push_back("resumed rows differ");
            for (auto &oc : outcomes)
                op.results.push_back(std::move(oc.result));
        }
        op.wallS = secondsSince(t0);
        fs::remove(journal);
        return op;
    }

  private:
    Options opt;
    SweepPlan plan;
    std::string inProcessRows;
    double cellMedian = 0;
};

// ------------------------------------------------------------ replay-cmp

class ReplayWorkload : public Workload
{
  public:
    explicit ReplayWorkload(const Options &o) : opt(o) {}

    void
    prepare(bool record) override
    {
        SystemConfig cfg = config();
        size_t len = traceLength(cfg);
        std::string dir = opt.workDir + "/replay";
        paths.clear();
        for (unsigned t = 0; t < cfg.benchmarks.size(); ++t)
            paths.push_back(csprintf("%s/t%u.shlftrc", dir.c_str(), t));
        if (!record)
            return;
        fs::create_directories(dir);
        for (unsigned t = 0; t < cfg.benchmarks.size(); ++t) {
            Trace tr = generateThreadTrace(cfg, t, len);
            std::string err;
            fatal_if(!writeTrace2File(tr, paths[t], {}, &err),
                     "recording %s: %s", paths[t].c_str(), err.c_str());
            cfg.externalTraces.push_back(std::move(tr));
        }
        // The recorded traces replayed straight from memory: what
        // every replay from the files must reproduce.
        System sys(std::move(cfg));
        expected = runFingerprint(sys.run());
        fatal_if(anyThreadWrapped(sys, len),
                 "replay traces of %zu instructions are too short",
                 len);
    }

    std::string expectedFingerprint() const override { return expected; }

    OpResult
    run(Tracer *tracer, uint64_t id) override
    {
        OpResult op;
        auto t0 = Clock::now();
        {
            ScopedSpan root(tracer, "op.replay-cmp", kNoParent, id);
            SystemConfig cfg = config();
            size_t len = traceLength(cfg);
            op.specs.push_back(runSpec(cfg));
            for (const std::string &path : paths) {
                ScopedSpan s(tracer, "workload.trace_load", root.id(), id);
                Trace tr;
                TraceError te = TraceError::None;
                std::string detail;
                if (!tryReadTraceFile(path, tr, {}, &te, &detail)) {
                    op.problems.push_back(csprintf(
                        "%s: %s %s", path.c_str(), traceErrorName(te),
                        detail.c_str()));
                    return op;
                }
                op.counts.loaded += tr.size();
                op.counts.loadedBytes += fs::file_size(path);
                cfg.externalTraces.push_back(std::move(tr));
            }
            if (tracer) {
                takeDrive(op, driveSystem(std::move(cfg), tracer,
                                          root.id(), id));
            } else {
                System sys(std::move(cfg));
                op.setupS = secondsSince(t0);
                SystemResult r = sys.run();
                op.sims = 1;
                op.fingerprint = runFingerprint(r);
                op.retired = retiredOf(r);
                if (anyThreadWrapped(sys, len))
                    op.problems.push_back(
                        "a thread wrapped around its trace");
            }
        }
        op.wallS = secondsSince(t0);
        return op;
    }

  private:
    SystemConfig
    config() const
    {
        SystemConfig cfg;
        cfg.core = shelfCore(4, true);
        cfg.numCores = 2;
        cfg.allocation = "round-robin";
        cfg.benchmarks = { "gcc", "hmmer", "milc", "povray",
                           "mcf", "omnetpp", "sjeng", "lbm" };
        cfg.seed = simSeed(opt);
        cfg.warmupCycles = opt.tiny ? 500 : 4000;
        cfg.measureCycles = opt.tiny ? 4000 : 200000;
        return cfg;
    }

    /**
     * Two instructions per thread per cycle: no thread of a 4-thread
     * core comes near that rate (the busiest retires about 0.5 per
     * cycle), so no thread wraps; prepare() and every operation check
     * that none did. System's own sizing would be 2.5x longer.
     */
    static size_t
    traceLength(const SystemConfig &cfg)
    {
        return static_cast<size_t>(
            2 * (cfg.warmupCycles + cfg.measureCycles));
    }

    Options opt;
    std::vector<std::string> paths;
    std::string expected;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "run-4t")
        return std::make_unique<RunWorkload>(opt);
    if (opt.workload == "sweep-fig10")
        return std::make_unique<Fig10Workload>(opt);
    if (opt.workload == "sweep-isolated")
        return std::make_unique<IsolatedWorkload>(opt);
    if (opt.workload == "replay-cmp")
        return std::make_unique<ReplayWorkload>(opt);
    return nullptr;
}

} // namespace perfbench
