#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/env.h"

namespace smite::obs {

namespace {

/** Small dense thread ids for the trace (0 = first thread seen). */
int
currentThreadId()
{
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

bool
traceEnabled()
{
    return TraceSession::global().enabled();
}

TraceSession::TraceSession()
    : enabled_(envFlag("SMITE_TRACE", false)), epoch_ns_(steadyNanos())
{
}

TraceSession &
TraceSession::global()
{
    // Leaked on purpose: spans may close during static destruction.
    static TraceSession *session = new TraceSession();
    return *session;
}

std::uint64_t
TraceSession::nowMicros() const
{
    return (steadyNanos() - epoch_ns_) / 1000;
}

void
TraceSession::record(const char *name, std::uint64_t start_us,
                     std::uint64_t duration_us, std::string detail)
{
    const int tid = currentThreadId();
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(
        Event{name, tid, start_us, duration_us, std::move(detail)});
}

std::size_t
TraceSession::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::vector<std::string>
TraceSession::spanNames() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    for (const Event &event : events_)
        names.emplace_back(event.name);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

json::Value
TraceSession::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    json::Value events = json::Value::array();
    for (const Event &event : events_) {
        json::Value e = json::Value::object();
        e.set("name", json::Value(event.name));
        e.set("cat", json::Value("smite"));
        e.set("ph", json::Value("X"));
        e.set("pid", json::Value(1));
        e.set("tid", json::Value(event.tid));
        e.set("ts", json::Value(event.start_us));
        e.set("dur", json::Value(event.duration_us));
        if (!event.detail.empty()) {
            json::Value args = json::Value::object();
            args.set("detail", json::Value(event.detail));
            e.set("args", std::move(args));
        }
        events.push(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc.set("displayTimeUnit", json::Value("ms"));
    doc.set("traceEvents", std::move(events));
    return doc;
}

bool
TraceSession::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "smite: cannot write trace to %s\n",
                     path.c_str());
        return false;
    }
    out << toJson().dump(1) << "\n";
    return static_cast<bool>(out);
}

void
TraceSession::clearForTesting()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
}

Span::Span(const char *name, std::string detail)
{
    TraceSession &session = TraceSession::global();
    if (!session.enabled())
        return;
    name_ = name;
    detail_ = std::move(detail);
    start_us_ = session.nowMicros();
}

Span::~Span()
{
    if (name_ == nullptr)
        return;
    TraceSession &session = TraceSession::global();
    // A span that opened while tracing was on closes even if a test
    // has since toggled the flag off; clearForTesting discards it.
    const std::uint64_t end_us = session.nowMicros();
    session.record(name_, start_us_,
                   end_us > start_us_ ? end_us - start_us_ : 0,
                   std::move(detail_));
}

} // namespace smite::obs
