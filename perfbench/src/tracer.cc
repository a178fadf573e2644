#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "host.h"

namespace perfbench
{

namespace
{

/** Open scopes of the current thread, innermost last. */
thread_local std::vector<std::int64_t> t_open;

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

Tracer::Tracer() : origin_ns_(nowNs()) {}

std::int64_t
Tracer::newGroup()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ++groups_;
}

std::int64_t
Tracer::open(const char *layer, const char *name, std::int64_t group,
             std::int64_t parent)
{
    if (parent < 0)
        parent = t_open.empty() ? 0 : t_open.back();
    SpanRecord rec;
    rec.layer = layer;
    rec.name = name;
    rec.parent = parent;
    rec.tid = threadIndex();
    std::int64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (group == 0 && parent > 0)
            group = spans_[static_cast<std::size_t>(parent - 1)].group;
        rec.group = group;
        id = static_cast<std::int64_t>(spans_.size()) + 1;
        rec.id = id;
        spans_.push_back(std::move(rec));
        closed_.push_back(false);
    }
    t_open.push_back(id);
    // Read the clock last so the bookkeeping above is not inside the span.
    const std::int64_t start = nowNs() - origin_ns_;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id - 1)].startNs = start;
    return id;
}

void
Tracer::close(std::int64_t id)
{
    const std::int64_t end = nowNs() - origin_ns_;
    const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
    if (it != t_open.rend())
        t_open.erase(std::next(it).base());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id - 1)].endNs = end;
    closed_[static_cast<std::size_t>(id - 1)] = true;
}

Tracer::Scope::Scope(Tracer *tracer, const char *layer, const char *name,
                     std::int64_t group, std::int64_t parent)
    : tracer_(tracer)
{
    if (tracer_ != nullptr) {
        id_ = tracer_->open(layer, name, group, parent);
        open_ = true;
    }
}

void
Tracer::Scope::end()
{
    if (open_) {
        tracer_->close(id_);
        open_ = false;
    }
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> out;
    out.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (closed_[i])
            out.push_back(spans_[i]);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<SpanRecord> all = spans();
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        out << "{\"name\": " << jsonString(s.name)
            << ", \"cat\": " << jsonString(s.layer)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
            << ", \"ts\": " << static_cast<double>(s.startNs) / 1e3
            << ", \"dur\": " << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"group\": " << s.group << "}}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    return static_cast<bool>(out);
}

double
coveredSeconds(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
               std::int64_t begin, std::int64_t end)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = begin;
    for (auto [a, b] : intervals) {
        a = std::max(a, reach);
        b = std::min(b, end);
        if (b > a) {
            covered += b - a;
            reach = b;
        }
    }
    return 1e-9 * static_cast<double>(covered);
}

std::map<std::string, double>
selfSecondsByLayer(const std::vector<SpanRecord> &spans)
{
    std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const SpanRecord &s : spans)
        if (s.parent > 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    std::map<std::string, double> self;
    for (const SpanRecord &s : spans) {
        const auto it = children.find(s.id);
        const double covered =
            it == children.end() ? 0.0
                                 : coveredSeconds(it->second, s.startNs, s.endNs);
        self[s.layer] += s.seconds() - covered;
    }
    return self;
}

std::pair<double, double>
layerCoverage(const std::vector<SpanRecord> &spans,
              const std::string &parent_name)
{
    // Ids are dense and parents precede children, so one forward pass
    // finds each span's top-level "bench" ancestor of interest.
    std::map<std::int64_t, std::int64_t> root_of;
    std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        covering;
    double total = 0.0;
    for (const SpanRecord &s : spans) {
        if (s.layer == "bench" && s.name == parent_name) {
            root_of[s.id] = s.id;
            total += s.seconds();
            continue;
        }
        const auto it = root_of.find(s.parent);
        if (it == root_of.end())
            continue;
        root_of[s.id] = it->second;
        if (s.layer != "bench")
            covering[it->second].emplace_back(s.startNs, s.endNs);
    }
    double covered = 0.0;
    for (const SpanRecord &s : spans)
        if (s.layer == "bench" && s.name == parent_name) {
            const auto it = covering.find(s.id);
            if (it != covering.end())
                covered += coveredSeconds(it->second, s.startNs, s.endNs);
        }
    return {covered, total};
}

} // namespace perfbench
