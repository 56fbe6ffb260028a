/**
 * @file
 * In-memory span recorder for the traced benchmark run. The benchmark
 * wraps each call into a simulator layer (generate, trace load,
 * System build, functional warm, Core::run, sweep cells, reference
 * precompute, serialization) in a span carrying a name, start, end,
 * parent span and run id. Spans stay in memory until the run ends and
 * are then written out as one JSON document. A layer's self time is
 * its spans' durations minus the part covered by their children.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

constexpr int64_t kNoParent = -1;

struct Span
{
    int64_t id = 0;
    int64_t parent = kNoParent;
    uint64_t run = 0;
    std::string name;
    double start = 0; ///< seconds since the recorder was created
    double end = 0;
};

/** Thread-safe span store; sweep cells record from worker threads. */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    /** Open a span now; close it with end(). */
    int64_t begin(const std::string &name, int64_t parent, uint64_t run);
    void end(int64_t id);

    std::vector<Span> spans() const;

    /** Every span as one JSON document. */
    std::string toJson(const std::string &header) const;

  private:
    double now() const { return secondsSince(epoch); }

    mutable std::mutex m;
    std::vector<Span> store; ///< guarded by m; index == span id
    Clock::time_point epoch;
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const std::string &name, int64_t parent,
               uint64_t run)
        : tracer(t), spanId(t ? t->begin(name, parent, run) : kNoParent)
    {}
    ~ScopedSpan()
    {
        if (tracer)
            tracer->end(spanId);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return spanId; }

  private:
    Tracer *tracer;
    int64_t spanId;
};

/**
 * Self time summed per span name over the spans of @p run: each
 * span's duration minus the union of its children's intervals.
 * Parallel children (sweep cells) are counted once where they
 * overlap, so a parent's self time is never negative.
 */
std::map<std::string, double> selfTimes(const std::vector<Span> &spans,
                                        uint64_t run);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
