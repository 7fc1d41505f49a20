#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace rimebench
{

std::uint64_t
SpanRecorder::add(const std::string &name, std::uint64_t request,
                  std::uint64_t parent, std::int64_t start_ns,
                  std::int64_t end_ns)
{
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = std::max(start_ns, end_ns);
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::map<std::string, std::vector<double>>
SpanRecorder::selfTimesUs() const
{
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t,
                                             std::int64_t>>>
        children;
    for (const Span &s : spans_) {
        if (s.parent)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, std::vector<double>> out;
    for (const Span &s : spans_) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = s.startNs;
            for (const auto &[a, b] : iv) {
                const std::int64_t from = std::max(a, lo);
                const std::int64_t to = std::min(b, s.endNs);
                if (to > from) {
                    covered += to - from;
                    lo = to;
                }
            }
        }
        out[s.name].push_back(
            static_cast<double>(s.endNs - s.startNs - covered) / 1e3);
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu}}%s\n",
                     s.name.c_str(),
                     static_cast<double>(s.startNs - base) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace rimebench
