#include "serve_target.hh"

#include <algorithm>
#include <thread>

namespace rimebench
{

using namespace rime;
using namespace rime::service;

namespace
{

std::vector<std::uint64_t>
rangeValues(Rng &rng)
{
    std::vector<std::uint64_t> v(kRangeKeys);
    for (auto &x : v)
        x = rng() & 0xFFFFFFFFULL;
    return v;
}

std::shared_ptr<const std::vector<std::uint64_t>>
sortedCopy(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return std::make_shared<const std::vector<std::uint64_t>>(
        std::move(v));
}

Request
initRequest(const RangeRef &r)
{
    Request req;
    req.kind = RequestKind::Init;
    req.start = r.start;
    req.end = r.end;
    req.mode = KeyMode::UnsignedFixed;
    req.wordBits = 32;
    return req;
}

} // namespace

bool
armRanges(const SubmitFn &submit, Rng &rng, RangeSet &out)
{
    const auto call = [&](Request req) {
        return submit(std::move(req), nullptr).get();
    };
    for (unsigned i = 0; i < kRanges; ++i) {
        RangeRef r;
        Request m;
        m.kind = RequestKind::Malloc;
        m.bytes = kRangeKeys * sizeof(std::uint32_t);
        const Response got = call(std::move(m));
        if (!got.ok())
            return false;
        r.start = got.addr;
        r.end = got.addr + kRangeKeys * sizeof(std::uint32_t);
        std::vector<std::uint64_t> values = rangeValues(rng);
        Request store;
        store.kind = RequestKind::StoreArray;
        store.start = r.start;
        store.values = values;
        if (!call(std::move(store)).ok() || !call(initRequest(r)).ok())
            return false;
        r.sorted = sortedCopy(std::move(values));
        out.ranges.push_back(std::move(r));
    }
    return true;
}

ServeTarget::ServeTarget(SubmitFn submit, RangeSet &ranges, bool writes,
                         std::uint64_t seed)
    : submit_(std::move(submit)), ranges_(ranges), writes_(writes)
{
    if (writes_) {
        Rng rng(seed ^ 0x3717EULL);
        for (unsigned i = 0; i < kRanges; ++i) {
            writeValues_.push_back(rangeValues(rng));
            writeSorted_.push_back(sortedCopy(writeValues_.back()));
        }
    }
}

Request
ServeTarget::next(Pending &p)
{
    const unsigned slot = static_cast<unsigned>(opIndex_++ % kMixCycle);
    if (writes_ && slot == kMixCycle - 2) {
        const RangeRef &r = ranges_.ranges[ranges_.nextWrite];
        Request req;
        req.kind = RequestKind::StoreArray;
        req.start = r.start;
        req.values = writeValues_[nextSet_];
        p.kind = req.kind;
        return req;
    }
    if (writes_ && slot == kMixCycle - 1) {
        RangeRef &r = ranges_.ranges[ranges_.nextWrite];
        ranges_.nextWrite = (ranges_.nextWrite + 1) % kRanges;
        r.sorted = writeSorted_[nextSet_];
        r.cursor = 0;
        nextSet_ = (nextSet_ + 1) % kRanges;
        p.kind = RequestKind::Init;
        return initRequest(r);
    }
    RangeRef &r = ranges_.ranges[ranges_.nextRead];
    if (r.cursor * kTopK >= kRangeKeys) {
        // Drained: re-arm it (a write) and read it on the next op.
        r.cursor = 0;
        p.kind = RequestKind::Init;
        return initRequest(r);
    }
    ranges_.nextRead = (ranges_.nextRead + 1) % kRanges;
    Request req;
    req.kind = RequestKind::TopK;
    req.start = r.start;
    req.end = r.end;
    req.count = kTopK;
    p.kind = req.kind;
    p.expect = r.sorted;
    p.offset = r.cursor * kTopK;
    ++r.cursor;
    return req;
}

void
ServeTarget::submit(std::uint64_t, std::int64_t due_ns,
                    std::function<void()> done)
{
    Pending p;
    Request req = next(p);
    p.dueNs = due_ns;
    p.completion = std::make_shared<Completion>();
    p.completion->done = std::move(done);
    auto c = p.completion;
    p.sentNs = nowNs();
    p.future = submit_(std::move(req), [c] { c->fire(); });
    pending_.push_back(std::move(p));
}

Outcome
ServeTarget::finish(std::uint64_t)
{
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    const Response resp = p.future.get();
    // A reply completed without the hook (an immediate rejection) is
    // timed here; a hook racing on another thread is waited out.
    p.completion->fire();
    std::int64_t done = 0;
    while ((done = p.completion->atNs.load(std::memory_order_acquire)) ==
           0)
        std::this_thread::yield();
    ++completed_;
    const double rtt = static_cast<double>(done - p.sentNs) / 1e3;
    if (rtt >= 50000.0)
        ++stalls_;
    if (resp.status == ServiceStatus::Rejected)
        ++rejected_;

    Outcome o;
    o.write = p.kind != RequestKind::TopK;
    if (o.write) {
        o.ok = resp.ok();
        return o;
    }
    o.ok = resp.ok() && resp.items.size() == kTopK &&
        p.offset + kTopK <= p.expect->size();
    for (std::size_t i = 0; o.ok && i < resp.items.size(); ++i)
        o.ok = resp.items[i].raw == (*p.expect)[p.offset + i];
    const double queue = resp.queueWallNs / 1e3;
    rttUs_.push_back(rtt);
    queueUs_.push_back(queue);
    if (spans_) {
        const std::uint64_t id = spans_->newRequest();
        const std::uint64_t root =
            spans_->add("bench.request", id, 0, p.dueNs, done);
        const std::uint64_t hop =
            spans_->add(rttSpan_, id, root, p.sentNs, done);
        spans_->add("service.shard.queue", id, hop, p.sentNs,
                    p.sentNs + static_cast<std::int64_t>(
                                   resp.queueWallNs));
    }
    return o;
}

std::vector<double>
ServeTarget::readExecUs() const
{
    std::vector<double> out(rttUs_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::max(0.0, rttUs_[i] - queueUs_[i]);
    return out;
}

} // namespace rimebench
