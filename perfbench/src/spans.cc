#include "spans.hh"

#include <algorithm>
#include <utility>

#include "base/json.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t
Tracer::begin(const std::string &name, int64_t parent, uint64_t run)
{
    double t = now();
    std::lock_guard<std::mutex> lk(m);
    Span s;
    s.id = static_cast<int64_t>(store.size());
    s.parent = parent;
    s.run = run;
    s.name = name;
    s.start = t;
    s.end = t;
    store.push_back(std::move(s));
    return store.back().id;
}

void
Tracer::end(int64_t id)
{
    double t = now();
    std::lock_guard<std::mutex> lk(m);
    store.at(static_cast<size_t>(id)).end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(m);
    return store;
}

std::string
Tracer::toJson(const std::string &header) const
{
    shelf::JsonWriter w(shelf::JsonWriter::kFullPrecision);
    w.beginObject();
    w.rawField("host", header);
    w.beginArray("spans");
    for (const Span &s : spans()) {
        w.beginObject();
        w.field("id", static_cast<uint64_t>(s.id));
        if (s.parent == kNoParent)
            w.rawField("parent", "null");
        else
            w.field("parent", static_cast<uint64_t>(s.parent));
        w.field("run", s.run);
        w.field("name", s.name);
        w.field("start", s.start);
        w.field("end", s.end);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

namespace
{

/** Length of the union of @p iv, each clipped to [lo, hi]. */
double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    for (auto &p : iv) {
        p.first = std::max(p.first, lo);
        p.second = std::min(p.second, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, curLo = 0, curHi = 0;
    bool open = false;
    for (const auto &[a, b] : iv) {
        if (b <= a)
            continue;
        if (open && a <= curHi) {
            curHi = std::max(curHi, b);
            continue;
        }
        if (open)
            covered += curHi - curLo;
        curLo = a;
        curHi = b;
        open = true;
    }
    if (open)
        covered += curHi - curLo;
    return covered;
}

} // namespace

std::map<std::string, double>
selfTimes(const std::vector<Span> &spans, uint64_t run)
{
    std::map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans)
        if (s.run == run && s.parent != kNoParent)
            children[s.parent].emplace_back(s.start, s.end);
    std::map<std::string, double> self;
    for (const Span &s : spans) {
        if (s.run != run)
            continue;
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end())
            covered = coveredLength(it->second, s.start, s.end);
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

} // namespace perfbench
