/**
 * @file
 * The traced run's span recorder.  Spans are recorded in memory by
 * the benchmark's own code around the calls it makes into each layer
 * (name, request id, parent, start, end), written out once at the
 * end as a Chrome/Perfetto trace, and reduced to per-layer self
 * times: a span's duration minus the part of it its children cover.
 *
 * Recording happens on the generator thread only; the recorder is
 * not synchronized.
 */

#ifndef RIMEBENCH_SPANS_HH
#define RIMEBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rimebench
{

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = a root span
    std::uint64_t request = 0;
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanRecorder
{
  public:
    /** Record a finished span; returns its id (ids start at 1). */
    std::uint64_t add(const std::string &name, std::uint64_t request,
                      std::uint64_t parent, std::int64_t start_ns,
                      std::int64_t end_ns);

    /** A fresh request id (ids start at 1). */
    std::uint64_t newRequest() { return ++requests_; }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span in microseconds, grouped by span name:
     * duration minus the union of its children's intervals, clipped
     * to the span.
     */
    std::map<std::string, std::vector<double>> selfTimesUs() const;

    /** Write the spans as Chrome trace-event JSON; false on error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::uint64_t requests_ = 0;
};

} // namespace rimebench

#endif // RIMEBENCH_SPANS_HH
