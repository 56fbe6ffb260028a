#include "drive.hh"

#include <algorithm>
#include <memory>

#include "base/logging.hh"
#include "workload/generator.hh"
#include "workload/spec2006.hh"

using namespace shelf;

namespace perfbench
{

namespace
{

/** Functional-warm prefix length, as in System::warmupPhase. */
constexpr size_t kWarmPrefix = 65536;

/** Core-local thread id of each global thread: its position among
 * the threads placed on the same core (System::buildCores). */
std::vector<ThreadID>
localThreadIds(const std::vector<unsigned> &assignment)
{
    std::vector<unsigned> perCore;
    std::vector<ThreadID> local(assignment.size());
    for (size_t t = 0; t < assignment.size(); ++t) {
        unsigned c = assignment[t];
        if (perCore.size() <= c)
            perCore.resize(c + 1, 0);
        local[t] = static_cast<ThreadID>(perCore[c]++);
    }
    return local;
}

std::vector<Core *>
activeCores(System &sys)
{
    std::vector<Core *> active;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        if (sys.hasCore(c))
            active.push_back(&sys.core(c));
    return active;
}

/** System::runAll: cycle-lockstep over every active core. */
void
runAll(System &sys, Cycle cycles)
{
    std::vector<Core *> active = activeCores(sys);
    if (active.size() == 1) {
        active[0]->run(cycles);
        return;
    }
    Cycle target = active[0]->cycle() + cycles;
    while (true) {
        Cycle min = target;
        for (Core *c : active)
            min = std::min(min, c->cycle());
        if (min >= target)
            break;
        for (Core *c : active)
            if (c->cycle() == min)
                c->stepWithSkip(target);
    }
}

} // namespace

void
LayerCounts::add(const LayerCounts &o)
{
    generated += o.generated;
    loaded += o.loaded;
    loadedBytes += o.loadedBytes;
    read += o.read;
    cycles += o.cycles;
    retired += o.retired;
    skipped += o.skipped;
    fetched += o.fetched;
    squashed += o.squashed;
    l1dAccesses += o.l1dAccesses;
    l1dMisses += o.l1dMisses;
    l2Accesses += o.l2Accesses;
    l2Misses += o.l2Misses;
    refSims += o.refSims;
}

size_t
autoTraceLength(const SystemConfig &cfg)
{
    return static_cast<size_t>((cfg.warmupCycles + cfg.measureCycles) *
                               (cfg.core.issueWidth + 1));
}

Trace
generateThreadTrace(const SystemConfig &cfg, unsigned t, size_t len)
{
    TraceGenerator gen(spec2006Profile(cfg.benchmarks[t]),
                       cfg.seed * 1000003ULL + t,
                       static_cast<Addr>(t) << 30);
    return gen.generate(len);
}

bool
anyThreadWrapped(System &sys, size_t len)
{
    const std::vector<unsigned> &assign = sys.threadAssignment();
    std::vector<ThreadID> local = localThreadIds(assign);
    for (size_t t = 0; t < assign.size(); ++t)
        if (sys.core(assign[t]).fetchCursor(local[t]) > len)
            return true;
    return false;
}

DriveOutcome
driveSystem(SystemConfig cfg, Tracer *tracer, int64_t parent,
            uint64_t run)
{
    fatal_if(cfg.numCores > 1 && cfg.allocation == "dynamic",
             "the traced path drives static allocations only");
    size_t threads = cfg.benchmarks.size();
    fatal_if(cfg.externalTraces.size() != threads,
             "driveSystem needs one supplied trace per thread");
    const Cycle warmupCycles = cfg.warmupCycles;
    const Cycle measureCycles = cfg.measureCycles;
    const std::vector<std::string> names = cfg.benchmarks;

    // The functional warm reads only a prefix of each trace; keep
    // that much before the traces move into the System.
    std::vector<Trace> prefixes(threads);
    std::vector<size_t> lengths(threads);
    for (size_t t = 0; t < threads; ++t) {
        const Trace &tr = cfg.externalTraces[t];
        lengths[t] = tr.size();
        prefixes[t].assign(tr.begin(),
                           tr.begin() + std::min(tr.size(), kWarmPrefix));
    }

    DriveOutcome out;
    std::unique_ptr<System> sys;
    {
        ScopedSpan s(tracer, "system.build", parent, run);
        sys = std::make_unique<System>(std::move(cfg));
    }
    const std::vector<unsigned> assign = sys->threadAssignment();
    const std::vector<ThreadID> local = localThreadIds(assign);
    const std::vector<Core *> cores = activeCores(*sys);

    {
        ScopedSpan s(tracer, "mem.functional_warm", parent, run);
        for (size_t t = 0; t < threads; ++t) {
            Core &c = sys->core(assign[t]);
            MemHierarchy &h = sys->memory(assign[t]);
            for (const TraceInst &inst : prefixes[t]) {
                h.warmInst(inst.pc);
                if (inst.isMem())
                    h.warmData(inst.addr);
                if (inst.isBranch())
                    c.branchPredictor().update(local[t], inst.pc,
                                               inst.taken);
            }
        }
        for (Core *c : cores) {
            c->branchPredictor().lookups.reset();
            c->branchPredictor().mispredicts.reset();
        }
    }
    {
        ScopedSpan s(tracer, "core.warmup", parent, run);
        runAll(*sys, warmupCycles);
    }
    {
        ScopedSpan s(tracer, "core.measure", parent, run);
        for (Core *c : cores)
            c->resetStats();
        for (unsigned c = 0; c < sys->numCores(); ++c)
            sys->memory(c).resetStats();
        if (sys->numCores() > 1)
            sys->sharedL2Cache().resetStats();
        runAll(*sys, measureCycles);
        for (Core *c : cores)
            c->classify().finalize();
    }

    SystemResult &res = out.result;
    LayerCounts &n = out.counts;
    const Core &first = *cores[0];
    res.configName = first.params().name;
    res.numCores = sys->numCores();
    res.cycles = first.coreStatistics().cycles;
    for (size_t t = 0; t < threads; ++t) {
        Core &c = sys->core(assign[t]);
        ThreadResult tr;
        tr.benchmark = names[t];
        tr.core = assign[t];
        tr.instructions = c.retired(local[t]);
        tr.ipc = c.ipc(local[t]);
        tr.inSeqFrac = c.classify().inSequenceFraction(local[t]);
        res.threads.push_back(tr);
        uint64_t cursor = c.fetchCursor(local[t]);
        out.wrapped = out.wrapped || cursor > lengths[t];
        n.read += std::max<uint64_t>(cursor, prefixes[t].size());
    }
    for (Core *c : cores) {
        const CoreStats &cs = c->coreStatistics();
        n.cycles += cs.cycles;
        n.retired += cs.totalRetired();
        n.skipped += cs.quiesceSkippedCycles;
        n.fetched += c->eventCounts().fetchedInsts;
        n.squashed += c->eventCounts().squashedInsts;
        res.squashes += cs.squashes;
        res.memOrderSquashes += cs.memOrderSquashes;
        res.events.fetchedInsts += c->eventCounts().fetchedInsts;
        res.events.squashedInsts += c->eventCounts().squashedInsts;
    }
    // System::run's own expressions: Core::totalIpc for one core,
    // retired over lockstep cycles for several.
    if (cores.size() == 1)
        res.totalIpc = first.totalIpc();
    else if (res.cycles)
        res.totalIpc = static_cast<double>(n.retired) /
            static_cast<double>(res.cycles);
    for (unsigned c = 0; c < sys->numCores(); ++c) {
        if (!sys->hasCore(c))
            continue;
        n.l1dAccesses += sys->memory(c).l1d().accesses.value();
        n.l1dMisses += sys->memory(c).l1d().misses.value();
    }
    res.l1dMissRate =
        n.l1dAccesses > 0 ? n.l1dMisses / n.l1dAccesses : 0.0;
    n.l2Accesses = sys->sharedL2Cache().accesses.value();
    n.l2Misses = sys->sharedL2Cache().misses.value();

    {
        ScopedSpan s(tracer, "system.teardown", parent, run);
        sys.reset();
    }
    return out;
}

} // namespace perfbench
