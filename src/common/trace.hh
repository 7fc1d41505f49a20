/**
 * @file
 * A low-overhead span/event tracer emitting Chrome-tracing JSON
 * (chrome://tracing, https://ui.perfetto.dev).
 *
 * Enabled by setting RIME_TRACE=<file>; with the variable unset every
 * trace point, span args included, compiles down to one predictable
 * inline branch on a cached bool or pointer, so instrumented hot paths
 * (the per-step scan phases) stay within noise of the un-instrumented
 * build.
 *
 * Determinism: trace points are only placed in controller-thread code,
 * and event arguments carry only simulation-deterministic values, so
 * the sequence of events and their args are bit-identical across
 * RIME_SIMD settings; only the wall-clock "ts"/"dur" fields vary
 * between runs.
 *
 * Usage:
 *   { TraceSpan span("chip", "scan");         // one complete event
 *     ... work ...
 *     span.arg("steps", steps); }             // args before scope end
 *   Tracer::global().instant("fault", "rowRemap", args);
 */

#ifndef RIME_COMMON_TRACE_HH
#define RIME_COMMON_TRACE_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rime
{

/** Collects trace events and writes them as Chrome-tracing JSON. */
class Tracer
{
  public:
    /** @param path output file; empty means disabled (all no-ops) */
    explicit Tracer(std::string path);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }
    const std::string &path() const { return path_; }

    /** Microseconds of wall clock since this tracer was created. */
    double nowUs() const;

    /**
     * Append one complete ("ph":"X") event.  `args_json` is either
     * empty or a comma-joined list of "key": value pairs.
     */
    void completeEvent(const char *cat, const char *name, double ts_us,
                       double dur_us, const std::string &args_json);

    /** Append one instant ("ph":"i") event. */
    void instant(const char *cat, const char *name,
                 const std::string &args_json = "");

    /** Append one counter ("ph":"C") sample. */
    void counter(const char *cat, const char *name, double value);

    /** Write all events collected so far to the trace file. */
    void flush();

    /** Number of events collected (for tests). */
    std::size_t eventCount() const;

    /** The process tracer, configured from RIME_TRACE on first use. */
    static Tracer &global();

  private:
    const std::string path_;
    const bool enabled_;
    const std::chrono::steady_clock::time_point start_;
    mutable std::mutex mutex_;
    /** Preformatted JSON event objects. */
    std::vector<std::string> events_;
};

/**
 * RAII trace span: one complete event covering the scope's lifetime.
 * When the tracer is disabled, construction, every arg() and
 * destruction each reduce to one inline branch on a null tracer
 * pointer; no argument is formatted and no out-of-line call is made.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *cat, const char *name)
        : TraceSpan(Tracer::global(), cat, name)
    {}

    TraceSpan(Tracer &tracer, const char *cat, const char *name)
        : tracer_(tracer.enabled() ? &tracer : nullptr), cat_(cat),
          name_(name), startUs_(tracer_ ? tracer.nowUs() : 0.0)
    {}

    ~TraceSpan()
    {
        if (tracer_) {
            tracer_->completeEvent(cat_, name_, startUs_,
                                   tracer_->nowUs() - startUs_,
                                   args_);
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a "key": value argument (before the scope ends). */
    void
    arg(const char *key, std::uint64_t value)
    {
        if (tracer_)
            format(key, value);
    }

    void
    arg(const char *key, double value)
    {
        if (tracer_)
            format(key, value);
    }

    void
    arg(const char *key, bool value)
    {
        if (tracer_)
            format(key, value);
    }

    void
    arg(const char *key, const char *value)
    {
        if (tracer_)
            format(key, value);
    }

    void
    arg(const char *key, unsigned value)
    {
        arg(key, static_cast<std::uint64_t>(value));
    }

  private:
    /** Out-of-line formatters behind arg(); enabled spans only. */
    void format(const char *key, std::uint64_t value);
    void format(const char *key, double value);
    void format(const char *key, bool value);
    void format(const char *key, const char *value);
    void append(const char *key, const std::string &value);

    Tracer *const tracer_;
    const char *const cat_;
    const char *const name_;
    const double startUs_;
    std::string args_;
};

/** Format a comma-joined args list for Tracer::instant. */
std::string traceArgs(std::initializer_list<
    std::pair<const char *, std::uint64_t>> args);

} // namespace rime

#endif // RIME_COMMON_TRACE_HH
