/**
 * @file
 * Span recorder and trace-event export.
 */

#include "spans.hh"

#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "mfusim/core/clock.hh"
#include "mfusim/serve/json.hh"

namespace perfbench
{

SpanRecorder &
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

std::int64_t
SpanRecorder::open(const std::string &name, const std::string &layer,
                   const std::string &ref)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.id = std::int64_t(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.ref = ref;
    span.startNs = mfusim::monoNanos();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::close(std::int64_t id)
{
    if (id < 0)
        return;
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_[std::size_t(id)].name);
    stack_.pop_back();
    spans_[std::size_t(id)].endNs = mfusim::monoNanos();
}

void
SpanRecorder::addRequest(const std::string &name, std::uint64_t startNs,
                         std::uint64_t endNs, std::int64_t parent,
                         const std::string &ref, int track)
{
    if (!enabled_)
        return;
    Span span;
    span.name = name;
    span.layer = "request";
    span.startNs = startNs;
    span.endNs = endNs;
    span.id = std::int64_t(spans_.size());
    span.parent = parent;
    span.ref = ref;
    span.track = track;
    spans_.push_back(std::move(span));
}

std::map<std::string, std::uint64_t>
SpanRecorder::selfNanos() const
{
    std::unordered_map<std::int64_t, std::uint64_t> childNs;
    for (const Span &s : spans_)
        if (s.track == 0 && s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, std::uint64_t> self;
    for (const std::string &layer : spanLayers())
        self[layer] = 0;
    for (const Span &s : spans_) {
        if (s.track != 0)
            continue;
        self[s.layer] += (s.endNs - s.startNs) - childNs[s.id];
    }
    return self;
}

std::uint64_t
SpanRecorder::wallNanos() const
{
    for (const Span &s : spans_)
        if (s.track == 0 && s.parent < 0)
            return s.endNs - s.startNs;
    return 0;
}

std::uint64_t
SpanRecorder::totalNanos(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const Span &s : spans_)
        if (s.track == 0 && s.name == name)
            total += s.endNs - s.startNs;
    return total;
}

std::size_t
SpanRecorder::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans_)
        if (s.track == 0 && s.name == name)
            ++n;
    return n;
}

void
SpanRecorder::writeTraceEvents(std::ostream &out,
                               const std::string &workload) const
{
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].startNs;
    out << "{\"traceEvents\":[";
    bool first = true;
    char buf[96];
    for (const Span &s : spans_) {
        if (!first)
            out << ",\n";
        first = false;
        std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                      double(s.startNs - origin) / 1e3,
                      double(s.endNs - s.startNs) / 1e3);
        out << "{\"name\":\"" << mfusim::jsonEscapeString(s.name)
            << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"ts\":"
            << buf << ",\"pid\":1,\"tid\":" << s.track
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"start_ns\":" << (s.startNs - origin)
            << ",\"end_ns\":"
            << (s.endNs == 0 ? std::int64_t(-1)
                             : std::int64_t(s.endNs - origin))
            << ",\"ref\":\"" << mfusim::jsonEscapeString(s.ref)
            << "\"}}";
    }
    out << "],\n\"otherData\":{\"workload\":\""
        << mfusim::jsonEscapeString(workload)
        << "\",\"wall_ns\":" << wallNanos() << ",\"self_ns\":{";
    first = true;
    for (const auto &[layer, ns] : selfNanos()) {
        out << (first ? "" : ",") << "\"" << layer << "\":" << ns;
        first = false;
    }
    out << "}}}\n";
}

} // namespace perfbench
