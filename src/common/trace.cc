#include "trace.hh"

#include <cstdio>
#include <fstream>

#include "env.hh"
#include "logging.hh"

namespace rime
{

namespace
{

std::string
formatEvent(const char *cat, const char *name, const char *ph,
            double ts_us, const double *dur_us, const double *value,
            const std::string &args_json)
{
    char head[160];
    std::string event = "{\"name\": \"";
    event += name;
    event += "\", \"cat\": \"";
    event += cat;
    event += "\", \"ph\": \"";
    event += ph;
    event += "\"";
    std::snprintf(head, sizeof(head), ", \"ts\": %.3f", ts_us);
    event += head;
    if (dur_us) {
        std::snprintf(head, sizeof(head), ", \"dur\": %.3f", *dur_us);
        event += head;
    }
    event += ", \"pid\": 1, \"tid\": 0";
    if (value) {
        std::snprintf(head, sizeof(head),
                      ", \"args\": {\"value\": %.17g}", *value);
        event += head;
    } else if (!args_json.empty()) {
        event += ", \"args\": {";
        event += args_json;
        event += "}";
    }
    event += "}";
    return event;
}

} // namespace

Tracer::Tracer(std::string path)
    : path_(std::move(path)), enabled_(!path_.empty()),
      start_(std::chrono::steady_clock::now())
{}

Tracer::~Tracer()
{
    if (enabled_)
        flush();
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
        std::chrono::steady_clock::now() - start_).count();
}

void
Tracer::completeEvent(const char *cat, const char *name, double ts_us,
                      double dur_us, const std::string &args_json)
{
    if (!enabled_)
        return;
    std::string event = formatEvent(cat, name, "X", ts_us, &dur_us,
                                    nullptr, args_json);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
Tracer::instant(const char *cat, const char *name,
                const std::string &args_json)
{
    if (!enabled_)
        return;
    std::string event = formatEvent(cat, name, "i", nowUs(), nullptr,
                                    nullptr, args_json);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
Tracer::counter(const char *cat, const char *name, double value)
{
    if (!enabled_)
        return;
    std::string event = formatEvent(cat, name, "C", nowUs(), nullptr,
                                    &value, "");
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
Tracer::flush()
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream os(path_);
    if (!os) {
        warn("cannot write trace file '%s'", path_.c_str());
        return;
    }
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
        os << (i ? ",\n" : "\n") << "  " << events_[i];
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

Tracer &
Tracer::global()
{
    static Tracer tracer(envString("RIME_TRACE").value_or(""));
    return tracer;
}

void
TraceSpan::append(const char *key, const std::string &value)
{
    if (!args_.empty())
        args_ += ", ";
    args_ += "\"";
    args_ += key;
    args_ += "\": ";
    args_ += value;
}

void
TraceSpan::format(const char *key, std::uint64_t value)
{
    append(key, std::to_string(value));
}

void
TraceSpan::format(const char *key, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    append(key, buf);
}

void
TraceSpan::format(const char *key, bool value)
{
    append(key, value ? "true" : "false");
}

void
TraceSpan::format(const char *key, const char *value)
{
    append(key, "\"" + std::string(value) + "\"");
}

std::string
traceArgs(std::initializer_list<
    std::pair<const char *, std::uint64_t>> args)
{
    std::string out;
    for (const auto &kv : args) {
        if (!out.empty())
            out += ", ";
        out += "\"";
        out += kv.first;
        out += "\": ";
        out += std::to_string(kv.second);
    }
    return out;
}

} // namespace rime
