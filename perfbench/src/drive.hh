/**
 * @file
 * The traced simulation path. System::run is one call, so to time its
 * phases separately the traced run builds the System with its traces
 * supplied (SystemConfig::externalTraces) and then drives the same
 * sequence System::run performs through the public Core and
 * MemHierarchy calls: functional warm, predictor-stat reset, timed
 * warmup, statistics reset, measured run. For the static allocation
 * policies this reproduces System::run's retired counts exactly; the
 * benchmark checks that it does on every traced run.
 */

#ifndef PERFBENCH_DRIVE_HH
#define PERFBENCH_DRIVE_HH

#include <cstdint>
#include <vector>

#include "sim/system.hh"
#include "spans.hh"

namespace perfbench
{

/** Layer counts of the simulations of one operation, summed. */
struct LayerCounts
{
    uint64_t generated = 0;   ///< instructions the generator produced
    uint64_t loaded = 0;      ///< instructions decoded from trace files
    uint64_t loadedBytes = 0; ///< trace file bytes read
    /** Trace positions some layer read: per thread, the larger of the
     * final fetch cursor and the functional-warm prefix. */
    uint64_t read = 0;
    uint64_t cycles = 0;      ///< measured core-cycles
    uint64_t retired = 0;     ///< measured retired instructions
    uint64_t skipped = 0;     ///< measured cycles fast-forwarded
    uint64_t fetched = 0;     ///< measured instructions fetched
    uint64_t squashed = 0;    ///< measured instructions squashed
    double l1dAccesses = 0, l1dMisses = 0;
    double l2Accesses = 0, l2Misses = 0;
    uint64_t refSims = 0;     ///< single-thread reference simulations

    void add(const LayerCounts &o);
};

/** Trace length System sizes automatically for @p cfg. */
size_t autoTraceLength(const shelf::SystemConfig &cfg);

/** The trace System would generate for global thread @p t. */
shelf::Trace generateThreadTrace(const shelf::SystemConfig &cfg,
                                 unsigned t, size_t len);

struct DriveOutcome
{
    /** The SystemResult fields a fingerprint or sweep row reads:
     * config name, cycles, per-thread instructions/IPC, total IPC,
     * L1D miss rate, squash counters and event counts. */
    shelf::SystemResult result;
    LayerCounts counts;
    /** Some thread fetched past the end of its trace and wrapped. */
    bool wrapped = false;
};

/**
 * Build a System from @p cfg (whose externalTraces must hold every
 * thread's trace) inside a "system.build" span, then run it phase by
 * phase under "mem.functional_warm", "core.warmup" and "core.measure"
 * spans, and tear it down under "system.teardown". fatal() for the
 * dynamic allocation policy, which re-deals threads mid-run.
 */
DriveOutcome driveSystem(shelf::SystemConfig cfg, Tracer *tracer,
                         int64_t parent, uint64_t run);

/** True when some thread of a finished @p sys fetched past the end
 * of a trace of @p len instructions. */
bool anyThreadWrapped(shelf::System &sys, size_t len);

} // namespace perfbench

#endif // PERFBENCH_DRIVE_HH
