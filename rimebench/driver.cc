#include "driver.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

namespace rimebench
{

double
nearestRank(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

Summary
summarize(std::vector<double> &samples, double maxPct)
{
    Summary s;
    s.count = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = nearestRank(samples, 50.0);
    s.tail = s.p50;
    for (const double pct : {99.9, 99.0, 95.0, 90.0}) {
        if (pct > maxPct)
            continue;
        const double n = static_cast<double>(samples.size());
        const auto rank =
            static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
        if (samples.size() - rank >= 10) {
            s.tail = nearestRank(samples, pct);
            s.tailPct = pct;
            break;
        }
    }
    return s;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    return samples.size() % 2
        ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

void
Rounds::add(double round_seconds, const std::vector<double> &op_us)
{
    roundSeconds.push_back(round_seconds);
    opUs.insert(opUs.end(), op_us.begin(), op_us.end());
    seconds += round_seconds;
}

namespace
{

/** Completion timestamps, written by whichever thread completes. */
struct DoneTimes
{
    explicit DoneTimes(std::size_t n)
        : at(std::make_unique<std::atomic<std::int64_t>[]>(n))
    {
        for (std::size_t i = 0; i < n; ++i)
            at[i].store(0, std::memory_order_relaxed);
    }

    std::function<void()>
    hook(std::uint64_t seq)
    {
        return [this, seq] {
            at[seq].store(nowNs(), std::memory_order_release);
        };
    }

    std::int64_t
    get(std::uint64_t seq) const
    {
        return at[seq].load(std::memory_order_acquire);
    }

    std::unique_ptr<std::atomic<std::int64_t>[]> at;
};

void
record(LoopResult &out, const Outcome &o, double us)
{
    (o.write ? out.writeUs : out.readUs).push_back(us);
    if (!o.ok)
        ++out.failed;
}

} // namespace

LoopResult
runOpenLoop(Target &target, const OpenLoopConfig &config)
{
    LoopResult out;
    const auto total = static_cast<std::uint64_t>(
        std::ceil(config.rate * config.seconds));
    const double interval_ns = 1e9 / config.rate;
    DoneTimes done(total);
    std::vector<std::int64_t> due(total, 0);
    out.lateUs.reserve(total);

    std::uint64_t sent = 0;
    std::uint64_t finished = 0;
    // Collect (in order) every request whose reply has arrived.
    const auto reap = [&](bool block) {
        while (finished < sent) {
            std::int64_t at = done.get(finished);
            if (at == 0 && !block)
                return;
            const Outcome o = target.finish(finished);
            at = done.get(finished);
            record(out, o, static_cast<double>(at - due[finished]) /
                               1e3);
            ++finished;
        }
    };

    const std::int64_t t0 = nowNs();
    for (; sent < total; ++sent) {
        const std::int64_t when =
            t0 + static_cast<std::int64_t>(
                     static_cast<double>(sent) * interval_ns);
        for (;;) {
            reap(false);
            const std::int64_t left = when - nowNs();
            if (left <= 0)
                break;
            if (left > 200000)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(left - 100000));
            else
                std::this_thread::yield();
        }
        if (sent - finished >= config.maxOutstanding) {
            out.overloaded = true;
            break;
        }
        due[sent] = when;
        const std::int64_t issued = nowNs();
        out.lateUs.push_back(static_cast<double>(issued - when) / 1e3);
        target.submit(sent, when, done.hook(sent));
    }
    const std::int64_t end = nowNs();
    for (std::uint64_t i = finished; i < sent; ++i) {
        if (done.get(i) == 0)
            ++out.backlogAtEnd;
    }
    reap(true);
    out.attempted = sent;
    out.seconds = static_cast<double>(end - t0) / 1e9;
    return out;
}

LoopResult
runClosedLoop(Target &target, unsigned depth, std::uint64_t ops)
{
    LoopResult out;
    DoneTimes done(ops);
    std::vector<std::int64_t> start(ops, 0);
    std::uint64_t sent = 0;
    std::uint64_t finished = 0;
    const std::int64_t t0 = nowNs();
    const auto collect = [&] {
        const Outcome o = target.finish(finished);
        const std::int64_t at = done.get(finished);
        record(out, o, static_cast<double>(at - start[finished]) / 1e3);
        ++finished;
    };
    while (finished < ops) {
        while (sent < ops && sent - finished < depth) {
            start[sent] = nowNs();
            target.submit(sent, start[sent], done.hook(sent));
            ++sent;
        }
        // Block on the oldest, then take every reply already behind
        // it before refilling: one wakeup, one drained batch.
        collect();
        std::uint64_t batch = 1;
        while (finished < sent && done.get(finished) != 0) {
            collect();
            ++batch;
        }
        ++out.drains;
        out.drainedOps += batch;
    }
    out.attempted = ops;
    out.seconds = static_cast<double>(nowNs() - t0) / 1e9;
    return out;
}

void
Report::add(std::vector<Metric> &to, std::string name, double value,
            std::string unit, std::uint64_t samples)
{
    to.push_back({std::move(name), value, std::move(unit), samples});
}

void
Report::fail(std::string why)
{
    correct = false;
    errors.push_back(std::move(why));
}

void
Report::count(const LoopResult &loop)
{
    attempted += loop.attempted;
    failed += loop.failed;
    if (loop.failed)
        fail(std::to_string(loop.failed) + " wrong or failed replies");
}

std::string
stampLine(const Stamp &s)
{
    return "stamp: rev=" + s.rev + " isa=" + s.isa +
        " nproc=" + std::to_string(s.nproc) + " build=" + s.buildType +
        " workload=" + s.workload + " seed=" + std::to_string(s.seed) +
        " trace=" + (s.trace ? "1" : "0");
}

std::string
resultJson(const Report &report, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += report.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

double
peakRssMb()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace rimebench
