#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "compiler/engine.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : t0_(Clock::now()) {}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
}

void
SpanRecorder::engineCounts(std::uint64_t *lookups,
                           std::uint64_t *misses) const
{
    if (engine_ == nullptr) {
        *lookups = *misses = 0;
        return;
    }
    auto s = engine_->stats();
    *lookups = s.lookups();
    *misses = s.misses;
}

int
SpanRecorder::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run_id = run_id_;
    // Engine counts are stashed in the delta fields until end().
    engineCounts(&s.lookups, &s.misses);
    s.start_us = nowUs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

Span &
SpanRecorder::end(int idx)
{
    double t = nowUs();
    if (open_.empty() || open_.back() != idx)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    Span &s = spans_[static_cast<std::size_t>(idx)];
    s.end_us = t;
    std::uint64_t lookups = 0, misses = 0;
    engineCounts(&lookups, &misses);
    s.lookups = lookups - s.lookups;
    s.misses = misses - s.misses;
    return s;
}

std::map<std::string, double>
SpanRecorder::selfTimesUs() const
{
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_us[static_cast<std::size_t>(s.parent)] +=
                s.end_us - s.start_us;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] +=
            spans_[i].end_us - spans_[i].start_us - child_us[i];
    return self;
}

void
SpanRecorder::write(std::ostream &os) const
{
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i > 0 ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"start_us\":" << s.start_us
           << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
           << ",\"run\":" << s.run_id << ",\"lookups\":" << s.lookups
           << ",\"misses\":" << s.misses << "}";
    }
    os << "\n]}\n";
}

std::vector<Metric>
selfTimeMetrics(const SpanRecorder &rec,
                const std::vector<std::string> &names,
                const std::string &root, double passes)
{
    auto self = rec.selfTimesUs();
    for (const auto &[name, us] : self)
        if (name != root &&
            std::find(names.begin(), names.end(), name) == names.end())
            throw std::logic_error("span '" + name + "' has no metric");
    std::vector<Metric> out;
    for (const auto &n : names) {
        auto it = self.find(n);
        double us = it != self.end() ? it->second : 0.0;
        out.push_back({"self." + n + "_ms", us / passes / 1e3, "ms"});
    }
    auto it = self.find(root);
    out.push_back({"self.remainder_ms",
                   (it != self.end() ? it->second : 0.0) / passes / 1e3,
                   "ms"});
    return out;
}

void
writeSpansFile(const std::string &path, const SpanRecorder &rec)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    rec.write(os);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
}

} // namespace perfbench
