/**
 * @file
 * The benchmark's workloads. Each one is a user-visible operation
 * with an untraced form (what the end-to-end metrics time) and a
 * traced form that records a span around every layer call and must
 * produce the same simulated fingerprint.
 *
 *   run-4t          one long single-core 4-thread shelf-opt run
 *   sweep-fig10     the Figure-10 sweep: 4 configs x 28 mixes plus
 *                   the single-thread references, in-process
 *   sweep-isolated  the 28-mix shelf-opt sweep in sandboxed worker
 *                   processes with a journal, then a resume pass
 *   replay-cmp      2 cores x 4 threads replaying recorded SHLFTRC2
 *                   trace files through a shared L2
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "drive.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "validate/config_json.hh"

namespace perfbench
{

extern const std::vector<std::string> kWorkloadNames;

struct Options
{
    std::string workload;
    uint64_t seed = 0;     ///< workload seed as given on the command line
    bool heldOut = false;  ///< draw inputs from the held-out seed range
    bool tiny = false;     ///< short windows and few mixes (self-tests)
    unsigned jobs = 1;     ///< sweep worker threads: min(4, nproc)
    std::string workDir;   ///< scratch space inside the checkout
};

/** Simulation seed of a workload seed: seed 0 is the repository's
 * default seed 1; held-out seeds come from a disjoint range. */
uint64_t simSeed(const Options &opt);

/** One operation's measured outcome. */
struct OpResult
{
    double wallS = 0;
    double setupS = 0;
    uint64_t sims = 0;        ///< simulations attempted
    uint64_t quarantined = 0; ///< cells the supervisor gave up on
    uint64_t retired = 0;     ///< measured retired insts, all sims
    /** Simulated fingerprint: per-thread retired counts and cycles
     * for runs, a hash of the STP rows for sweeps. */
    std::string fingerprint;
    /** Cross-check failures found by the operation itself. */
    std::vector<std::string> problems;
    /** Informational line (the sweep's geomean STP gain). */
    std::string info;

    /** @name Layer observations (traced operations) @{ */
    LayerCounts counts;
    std::vector<double> cellWalls; ///< JobOutcome::wallSeconds
    double attempts = 0;           ///< summed JobOutcome::attempts
    double batchWallS = 0;
    unsigned workers = 0;
    uint64_t journalBytes = 0;
    uint64_t journalReplayed = 0;
    double journalReplayS = 0;
    /** Median isolated cell wall minus the median in-process cell
     * wall of the same specs (sweep-isolated). */
    double spawnOverheadMs = 0;
    std::vector<shelf::SystemResult> results;
    std::vector<shelf::validate::SweepJobSpec> specs;
    /** @} */
};

/**
 * Per-process state a workload prepares before timing anything:
 * replay-cmp records its trace files and the fingerprint of the same
 * traces replayed from memory; sweep-isolated runs its sweep once
 * in-process, for the byte-identity check and the in-process cell
 * times.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** @p record false reuses files an earlier prepare() wrote. */
    virtual void prepare(bool record) {}

    /** One operation; traced when @p tracer is non-null, with every
     * span under run id @p run. */
    virtual OpResult run(Tracer *tracer, uint64_t run) = 0;

    /** Fingerprint the operation must reproduce, derived during
     * prepare(); empty when the workload has none. */
    virtual std::string expectedFingerprint() const { return ""; }

    /** True when the operation fans out over worker threads or
     * processes; false when one thread does all its work. */
    virtual bool parallel() const { return false; }
};

std::unique_ptr<Workload> makeWorkload(const Options &opt);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Absolute path of the running binary. */
std::string selfExe();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
