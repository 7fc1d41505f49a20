/**
 * @file
 * The serving workloads' Target: generates the fixed op mix over a
 * set of 4096-key ranges, submits through any path that speaks
 * service::Request (RimeClient, in-process Session, ClusterSession),
 * and checks every reply against the generator's reference state.
 *
 * Reference state: each range's sorted values and how many TopK-64s
 * were issued since its last Init.  Ops of one session execute in
 * submission order, so the k-th TopK after an Init must return
 * sorted[64k, 64k + 64) exactly.
 */

#ifndef RIMEBENCH_SERVE_TARGET_HH
#define RIMEBENCH_SERVE_TARGET_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "driver.hh"
#include "service/request.hh"
#include "spans.hh"

namespace rimebench
{

inline constexpr std::uint64_t kRangeKeys = 4096;
inline constexpr std::uint64_t kTopK = 64;
inline constexpr unsigned kRanges = 16;
/** Of every kMixCycle ops on serve-write, the last two are writes. */
inline constexpr unsigned kMixCycle = 8;

using SubmitFn = std::function<std::future<rime::service::Response>(
    rime::service::Request, std::function<void()>)>;

struct RangeRef
{
    rime::Addr start = 0;
    rime::Addr end = 0;
    std::shared_ptr<const std::vector<std::uint64_t>> sorted;
    /** TopKs issued since the last Init. */
    unsigned cursor = 0;
};

struct RangeSet
{
    std::vector<RangeRef> ranges;
    unsigned nextRead = 0;
    unsigned nextWrite = 0;
};

/** Malloc, store and init kRanges ranges, synchronously. */
bool armRanges(const SubmitFn &submit, rime::Rng &rng, RangeSet &out);

class ServeTarget : public Target
{
  public:
    ServeTarget(SubmitFn submit, RangeSet &ranges, bool writes,
                std::uint64_t seed);

    void submit(std::uint64_t seq, std::int64_t due_ns,
                std::function<void()> done) override;
    Outcome finish(std::uint64_t seq) override;

    /**
     * Record spans for every later op: bench.request [due, reply] ->
     * `rtt_span` [send, reply] -> service.shard.queue (the reply's
     * queueWallNs, placed at the send; only its length is measured).
     */
    void
    traceInto(SpanRecorder *spans, const char *rtt_span)
    {
        spans_ = spans;
        rttSpan_ = rtt_span;
    }

    /** Per-read samples: send to reply, queue wait, and the difference. */
    std::vector<double> readRttUs() const { return rttUs_; }
    std::vector<double> readQueueUs() const { return queueUs_; }
    std::vector<double> readExecUs() const;

    std::uint64_t rejected() const { return rejected_; }
    /** Replies that took 50 ms or more: the lost-wakeup signature. */
    std::uint64_t stalls() const { return stalls_; }
    std::uint64_t completed() const { return completed_; }

  private:
    /**
     * Fires the driver's hook once, from the reply or from finish().
     * atNs is published only after the hook returned, so finish(),
     * which waits for it, never lets the driver's state go while a
     * completing thread is still inside the hook.
     */
    struct Completion
    {
        std::atomic<std::int64_t> atNs{0};
        std::atomic<bool> fired{false};
        std::function<void()> done;

        void
        fire()
        {
            if (fired.exchange(true, std::memory_order_acq_rel))
                return;
            const std::int64_t at = nowNs();
            done();
            atNs.store(at, std::memory_order_release);
        }
    };

    struct Pending
    {
        std::future<rime::service::Response> future;
        rime::service::RequestKind kind =
            rime::service::RequestKind::TopK;
        std::shared_ptr<const std::vector<std::uint64_t>> expect;
        std::size_t offset = 0;
        std::int64_t dueNs = 0;
        std::int64_t sentNs = 0;
        std::shared_ptr<Completion> completion;
    };

    rime::service::Request next(Pending &p);

    SubmitFn submit_;
    RangeSet &ranges_;
    const bool writes_;
    std::uint64_t opIndex_ = 0;
    /** serve-write's value sets, cycled: values and their sort. */
    std::vector<std::vector<std::uint64_t>> writeValues_;
    std::vector<std::shared_ptr<const std::vector<std::uint64_t>>>
        writeSorted_;
    unsigned nextSet_ = 0;
    std::shared_ptr<const std::vector<std::uint64_t>> stored_;
    std::deque<Pending> pending_;
    std::vector<double> rttUs_;
    std::vector<double> queueUs_;
    std::uint64_t rejected_ = 0;
    std::uint64_t stalls_ = 0;
    std::uint64_t completed_ = 0;
    SpanRecorder *spans_ = nullptr;
    const char *rttSpan_ = "";
};

} // namespace rimebench

#endif // RIMEBENCH_SERVE_TARGET_HH
