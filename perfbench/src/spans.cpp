#include "spans.hpp"

#include <chrono>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <tuple>

namespace vbb {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

SpanRecorder::SpanRecorder(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), runId_(run_id)
{
}

int
SpanRecorder::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    // Read the clock last so the bookkeeping above stays outside.
    spans_.back().startNs = nowNs();
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    const std::int64_t t = nowNs();
    // Unwinding past inner spans (an exception) closes them too.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        spans_[static_cast<std::size_t>(top)].endNs = t;
        if (top == id)
            return;
    }
}

std::map<std::string, LayerTime>
SpanRecorder::totals(std::size_t from, std::size_t to) const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (std::size_t i = from; i < to; ++i) {
        const Span &s = spans_[i];
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = from; i < to; ++i) {
        const Span &s = spans_[i];
        LayerTime &t = out[s.name];
        const std::int64_t dur = s.endNs - s.startNs;
        t.totalS += static_cast<double>(dur) * 1e-9;
        t.selfS += static_cast<double>(dur - child_ns[i]) * 1e-9;
        ++t.count;
    }
    return out;
}

double
SpanRecorder::coverage(int id) const
{
    if (id < 0)
        return 0.0;
    std::int64_t covered = 0;
    // Children of one span run one after another on this thread, so
    // their durations do not overlap and simply add up.
    for (std::size_t i = static_cast<std::size_t>(id) + 1;
         i < spans_.size(); ++i) {
        if (spans_[i].parent == id)
            covered += spans_[i].endNs - spans_[i].startNs;
    }
    const Span &root = spans_.at(static_cast<std::size_t>(id));
    const std::int64_t dur = root.endNs - root.startNs;
    return dur > 0 ? static_cast<double>(covered) /
                         static_cast<double>(dur)
                   : 0.0;
}

void
SpanRecorder::writeJson(const std::string &path,
                        const std::string &workload) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write span file " + path);
    std::vector<char> has_child(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            has_child[static_cast<std::size_t>(s.parent)] = 1;
    }
    struct Group
    {
        std::uint64_t count = 0;
        std::int64_t first = 0;
        std::int64_t last = 0;
        std::int64_t total = 0;
    };
    std::map<std::tuple<int, std::string>, Group> leaves;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;

    out << "{\"schema\":\"vbbench-spans/1\",\"workload\":\"" << workload
        << "\",\"run_id\":" << runId_ << ",\"spans\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!has_child[i]) {
            Group &g = leaves[{s.parent, s.name}];
            if (g.count == 0)
                g.first = s.startNs;
            ++g.count;
            g.last = s.endNs;
            g.total += s.endNs - s.startNs;
            continue;
        }
        out << (first ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
            << s.name << "\",\"parent\":" << s.parent
            << ",\"start_ns\":" << s.startNs - t0
            << ",\"end_ns\":" << s.endNs - t0 << "}";
        first = false;
    }
    out << "],\"leaf_groups\":[";
    first = true;
    for (const auto &[key, g] : leaves) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << std::get<1>(key)
            << "\",\"parent\":" << std::get<0>(key)
            << ",\"count\":" << g.count
            << ",\"first_start_ns\":" << g.first - t0
            << ",\"last_end_ns\":" << g.last - t0
            << ",\"total_ns\":" << g.total << "}";
        first = false;
    }
    out << "]}\n";
}

} // namespace vbb
