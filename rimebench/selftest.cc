/**
 * @file
 * Tests of the benchmark's own helpers: the percentile/sample-count
 * rule, open-loop lateness accounting, the span self-time reduction,
 * and the serving reference checker (which must catch a wrong reply).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "driver.hh"
#include "serve_target.hh"
#include "spans.hh"

using namespace rimebench;
using namespace rime;
using namespace rime::service;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

TEST(Percentile, ReportsP99OnlyWithTenSamplesBeyond)
{
    auto v = oneTo(1000);
    Summary s = summarize(v);
    EXPECT_EQ(s.count, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tailPct, 99.0);
    EXPECT_EQ(s.tail, 990.0);

    // 999 samples leave only 9 beyond p99: fall back to p95.
    auto w = oneTo(999);
    s = summarize(w);
    EXPECT_EQ(s.tailPct, 95.0);
    EXPECT_EQ(s.tail, 950.0);
}

TEST(Percentile, CapsAndFallsBack)
{
    auto big = oneTo(100000);
    EXPECT_EQ(summarize(big).tailPct, 99.0); // capped at p99
    EXPECT_EQ(summarize(big, 99.9).tailPct, 99.9);
    auto few = oneTo(15);
    const Summary s = summarize(few);
    EXPECT_EQ(s.tailPct, 50.0); // too few for p90
    EXPECT_EQ(s.tail, s.p50);
    std::vector<double> none;
    EXPECT_EQ(summarize(none).count, 0u);
}

TEST(Percentile, MedianOfRepeats)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

/** Completes every op at once; op `slow` blocks its submit. */
class StallTarget : public Target
{
  public:
    explicit StallTarget(std::uint64_t slow) : slow_(slow) {}

    void
    submit(std::uint64_t seq, std::int64_t, std::function<void()> done)
        override
    {
        if (seq == slow_)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        done();
    }

    Outcome finish(std::uint64_t) override { return {}; }

  private:
    std::uint64_t slow_;
};

TEST(OpenLoop, StallIsChargedToTheRequestsQueuedBehindIt)
{
    StallTarget target(10);
    const LoopResult r = runOpenLoop(target, {1000.0, 0.05, 192});
    ASSERT_EQ(r.attempted, 50u);
    ASSERT_EQ(r.readUs.size(), 50u);
    ASSERT_EQ(r.lateUs.size(), 50u);
    // Op 11 was due 1 ms after op 10 but could only be sent once op
    // 10's 5 ms submit returned: ~4 ms late, and its latency counts
    // from the due time, so it includes that wait.
    EXPECT_GE(r.lateUs[11], 3000.0);
    EXPECT_GE(r.readUs[11], r.lateUs[11]);
    // The generator catches up within a few ms at 1 ms spacing.
    EXPECT_LT(r.lateUs[40], 1000.0);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_FALSE(r.overloaded);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime)
{
    SpanRecorder rec;
    const auto root = rec.add("root", 1, 0, 0, 1000);
    rec.add("child", 1, root, 100, 400);
    rec.add("child", 1, root, 300, 600); // overlaps the first
    const auto self = rec.selfTimesUs();
    EXPECT_DOUBLE_EQ(self.at("root")[0], 0.5);  // 1000 - 500 ns
    EXPECT_DOUBLE_EQ(self.at("child")[0], 0.3);
}

/**
 * A tiny in-memory ranking service behind a SubmitFn; replies to the
 * `corrupt`-th TopK carry one wrong value.
 */
class FakeService
{
  public:
    explicit FakeService(std::uint64_t corrupt) : corrupt_(corrupt) {}

    SubmitFn
    submitter()
    {
        return [this](Request req, std::function<void()> done) {
            std::promise<Response> p;
            auto f = p.get_future();
            p.set_value(serve(req));
            if (done)
                done();
            return f;
        };
    }

  private:
    Response
    serve(const Request &req)
    {
        Response r;
        r.status = ServiceStatus::Ok;
        switch (req.kind) {
          case RequestKind::Malloc:
            r.addr = next_;
            next_ += req.bytes;
            break;
          case RequestKind::StoreArray:
            values_[req.start] = req.values;
            break;
          case RequestKind::Init: {
            auto v = values_[req.start];
            std::sort(v.begin(), v.end());
            live_[req.start] = {v, 0};
            break;
          }
          case RequestKind::TopK: {
            auto &[sorted, pos] = live_[req.start];
            for (std::uint64_t i = 0; i < req.count; ++i)
                r.items.push_back({sorted[pos++], 0});
            if (topks_++ == corrupt_)
                r.items[7].raw ^= 1;
            break;
          }
          default:
            r.status = ServiceStatus::Rejected;
        }
        return r;
    }

    std::uint64_t corrupt_;
    std::uint64_t topks_ = 0;
    Addr next_ = 0x1000;
    std::map<Addr, std::vector<std::uint64_t>> values_;
    std::map<Addr, std::pair<std::vector<std::uint64_t>, std::size_t>>
        live_;
};

TEST(ReferenceChecker, CatchesADeliberatelyWrongReply)
{
    for (const bool writes : {false, true}) {
        FakeService svc(/*corrupt=*/100);
        Rng rng(7);
        RangeSet ranges;
        ASSERT_TRUE(armRanges(svc.submitter(), rng, ranges));
        ServeTarget target(svc.submitter(), ranges, writes, 3);
        const LoopResult r = runClosedLoop(target, 8, 2000);
        EXPECT_EQ(r.attempted, 2000u);
        // Exactly the corrupted TopK fails; every re-arm, store and
        // drained-range cycle in between checks clean.
        EXPECT_EQ(r.failed, 1u) << "writes=" << writes;
        EXPECT_GT(r.writeUs.size(), 0u);
    }
}

TEST(ReferenceChecker, CleanServiceHasNoFailures)
{
    FakeService svc(~0ULL);
    Rng rng(9);
    RangeSet ranges;
    ASSERT_TRUE(armRanges(svc.submitter(), rng, ranges));
    ServeTarget target(svc.submitter(), ranges, true, 5);
    const LoopResult r = runClosedLoop(target, 8, 3000);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(target.rejected(), 0u);
}

} // namespace
