#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "support/json.hh"

namespace perfbench
{

namespace
{

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

uint64_t
SpanRecorder::nextId()
{
    std::lock_guard<std::mutex> lock(mtx_);
    return nextId_++;
}

void
SpanRecorder::add(SpanRecord rec)
{
    std::lock_guard<std::mutex> lock(mtx_);
    spans_.push_back(std::move(rec));
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return spans_;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mtx_);
    spans_.clear();
}

Span::Span(SpanRecorder *rec, const char *name, int64_t group,
           uint64_t parent)
    : recorder_(rec)
{
    if (!recorder_)
        return;
    rec_.id = recorder_->nextId();
    rec_.parent = parent;
    rec_.group = group;
    rec_.name = name;
    rec_.thread = threadIndex();
    rec_.startNs = recorder_->nowNs();
}

Span::~Span()
{
    if (!recorder_)
        return;
    rec_.endNs = recorder_->nowNs();
    recorder_->add(std::move(rec_));
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::map<std::string, double>
selfSeconds(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<uint64_t, std::vector<const SpanRecord *>> children;
    for (const auto &s : spans)
        if (s.parent)
            children[s.parent].push_back(&s);

    std::map<std::string, double> out;
    for (const auto &s : spans) {
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (const SpanRecord *c : it->second) {
                uint64_t a = std::max(c->startNs, s.startNs);
                uint64_t b = std::min(c->endNs, s.endNs);
                if (a < b)
                    iv.emplace_back(a, b);
            }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, curA = 0, curB = 0;
        for (const auto &[a, b] : iv) {
            if (curB <= a) {
                covered += curB - curA;
                curA = a;
                curB = b;
            } else {
                curB = std::max(curB, b);
            }
        }
        covered += curB - curA;
        uint64_t dur = s.endNs - s.startNs;
        out[layerOf(s.name)] += double(dur - std::min(covered, dur)) * 1e-9;
    }
    return out;
}

double
totalSeconds(const std::vector<SpanRecord> &spans, const std::string &name)
{
    double sum = 0.0;
    for (const auto &s : spans)
        if (s.name == name)
            sum += s.seconds();
    return sum;
}

std::vector<double>
durations(const std::vector<SpanRecord> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const auto &s : spans)
        if (s.name == name)
            out.push_back(s.seconds());
    return out;
}

std::string
chromeTraceJson(const std::vector<SpanRecord> &spans)
{
    using bsyn::Json;
    Json events = Json::array();
    for (const auto &s : spans) {
        Json e = Json::object();
        e.set("name", Json(s.name));
        e.set("cat", Json(layerOf(s.name)));
        e.set("ph", Json("X"));
        e.set("ts", Json(double(s.startNs) / 1e3));
        e.set("dur", Json(double(s.endNs - s.startNs) / 1e3));
        e.set("pid", Json(1));
        e.set("tid", Json(uint64_t(s.thread)));
        Json args = Json::object();
        args.set("span", Json(s.id));
        args.set("parent", Json(s.parent));
        args.set("id", Json(s.group));
        e.set("args", args);
        events.push(e);
    }
    Json root = Json::object();
    root.set("traceEvents", events);
    root.set("displayTimeUnit", Json("ms"));
    return root.dump(-1) + "\n";
}

} // namespace perfbench
