/**
 * @file
 * The benchmark's one load driver and its result plumbing, shared by
 * every workload:
 *
 *  - summarize(): the single percentile routine -- the median plus
 *    the highest ladder percentile with at least ten samples beyond
 *    it, always reported with the sample count;
 *  - runOpenLoop(): requests issued on a fixed-rate schedule whether
 *    or not earlier ones finished, each timed from its *due* time so
 *    a stall is charged to every request queued behind it, with the
 *    generator's own lateness recorded separately;
 *  - runClosedLoop(): a fixed pipeline depth, next request sent only
 *    when one completes;
 *  - Rounds: a timed phase's rounds and op latencies;
 *  - Report: named metrics with unit and sample count, the
 *    correctness tally, and the provenance stamp.
 *
 * A Target adapts one system under test to the driver: submit() must
 * not block, and the completion hook may fire on any thread.
 */

#ifndef RIMEBENCH_DRIVER_HH
#define RIMEBENCH_DRIVER_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rimebench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary fixed epoch (steady clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since `t0`. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The median and the tail of one sample set. */
struct Summary
{
    std::uint64_t count = 0;
    double p50 = 0.0;
    double tail = 0.0;
    /** The percentile `tail` is (99 means p99); 50 when too few. */
    double tailPct = 50.0;
};

/**
 * Nearest-rank percentile of `sorted` (ascending): the smallest value
 * with at least pct% of the samples at or below it.
 */
double nearestRank(const std::vector<double> &sorted, double pct);

/**
 * The median and the highest percentile of {99.9, 99, 95, 90} not
 * above `maxPct` that leaves at least ten samples beyond it
 * (falling back to the median).  Sorts `samples`.
 */
Summary summarize(std::vector<double> &samples, double maxPct = 99.0);

/** Median of a small set of repeated measurements (copies). */
double median(std::vector<double> samples);

/**
 * A run's timed phase: its rounds (fixed units of the workload's
 * job), the ops they contain and each op's latency.  The end-to-end
 * metrics are medians and percentiles over all of it.  Interference
 * from the rest of a shared host comes and goes in spells of seconds;
 * over a whole run of tens of seconds it averages out far better than
 * any subset of the run picked by speed.
 */
struct Rounds
{
    std::vector<double> roundSeconds;
    std::vector<double> opUs;
    double seconds = 0.0;

    /** Record one finished round and its ops' latencies. */
    void add(double round_seconds, const std::vector<double> &op_us);
};

/** What one completed operation turned out to be. */
struct Outcome
{
    /** Reply matched the reference; false counts as failed. */
    bool ok = true;
    /** Counted as a write (latency kept apart from reads). */
    bool write = false;
};

/** One system under test, as the driver sees it. */
class Target
{
  public:
    virtual ~Target() = default;
    /**
     * Start operation `seq` (0, 1, 2, ... within one loop), due at
     * `due_ns` (nowNs() clock), without blocking; `done` is called
     * exactly once, from any thread, when its reply is available.
     */
    virtual void submit(std::uint64_t seq, std::int64_t due_ns,
                        std::function<void()> done) = 0;
    /**
     * Collect and check operation `seq`; called in seq order.  Returns
     * only once `done` for it has returned: the hook writes into the
     * loop's own state, which ends with the loop.
     */
    virtual Outcome finish(std::uint64_t seq) = 0;
};

/** Per-operation samples and tallies of one loop. */
struct LoopResult
{
    /** Due (open) or send (closed) to reply, reads and writes. */
    std::vector<double> readUs;
    std::vector<double> writeUs;
    /** Open loop: send minus due, per request. */
    std::vector<double> lateUs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Open loop: requests still outstanding when the schedule ended. */
    std::uint64_t backlogAtEnd = 0;
    /** Open loop: the generator stopped early at the backlog cap. */
    bool overloaded = false;
    /** Closed loop: wakeups that found replies, and replies per such. */
    std::uint64_t drains = 0;
    std::uint64_t drainedOps = 0;
    double seconds = 0.0;
};

/** Knobs of one open-loop phase. */
struct OpenLoopConfig
{
    double rate = 1000.0;    ///< requests per second
    double seconds = 1.0;    ///< schedule length
    /** Stop issuing (and mark overloaded) above this many in flight. */
    std::uint64_t maxOutstanding = 192;
};

/**
 * Issue ceil(rate * seconds) requests at due times t0 + i / rate on
 * the calling thread.  Latency runs from each request's due time to
 * its completion; lateness from due time to the actual submit.
 */
LoopResult runOpenLoop(Target &target, const OpenLoopConfig &config);

/** Keep `depth` requests in flight until `ops` completed. */
LoopResult runClosedLoop(Target &target, unsigned depth,
                         std::uint64_t ops);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** Everything one benchmark run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (the untraced run's JSON). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (the traced run's JSON). */
    std::vector<Metric> layers;
    /** Printed for the reader, not part of the JSON line. */
    std::vector<Metric> detail;
    /** Human-readable reasons for every correctness failure. */
    std::vector<std::string> errors;

    void add(std::vector<Metric> &to, std::string name, double value,
             std::string unit, std::uint64_t samples);
    void fail(std::string why);
    /** Fold a loop's tallies into attempted / failed. */
    void count(const LoopResult &loop);
};

/** Provenance printed with every result. */
struct Stamp
{
    std::string rev;
    std::string isa;
    unsigned nproc = 0;
    std::string buildType;
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
};

/** "key=value ..." line of the stamp. */
std::string stampLine(const Stamp &stamp);

/**
 * The result object: {"correct","attempted","failed","metrics"},
 * metrics from `metrics` as {"name": {"value","unit"}}.
 */
std::string resultJson(const Report &report,
                       const std::vector<Metric> &metrics);

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

} // namespace rimebench

#endif // RIMEBENCH_DRIVER_HH
