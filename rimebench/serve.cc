/**
 * @file
 * The serving workloads: TopK-64 requests against sixteen long-lived
 * 4096-key ranges on a RimeService that keeps the default
 * ServiceConfig (rime_server's).  A range is re-armed with an Init
 * after its 64th TopK, so every reply has a known answer.
 *
 *  - serve-read: reads only, journal off, over loopback TCP through a
 *    RimeClient to an in-process RimeServer.
 *  - serve-write: the journal on (fsync on every commit, a snapshot
 *    every 2048 journaled ops) and a fixed mix beside the reads: of
 *    every 8 ops, one is a StoreArray of 4096 fresh values into the
 *    next range and the op after it is that range's Init.  Over TCP.
 *  - serve-inproc: serve-write's mix and journal through an
 *    in-process Session on the same service (no socket, no event
 *    loop).
 *
 * With writes on, the journal is copied as a crash image after the
 * timed phases, recovered in a new service, and every acknowledged
 * write must read back.
 *
 * Phases, all through the one driver: an open loop at three fixed
 * rates, a search up a fixed rate ladder for the highest rate whose
 * read p99 stays within 1 ms with no growing backlog, and a closed
 * loop at pipeline depth 8, which the end-to-end metrics come from.
 * Generator threads plus connections: one generator thread and one
 * connection (two in the traced run, which adds a router connection).
 */

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "cluster/router.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "service/journal.hh"
#include "service/service.hh"
#include "serve_target.hh"

namespace rimebench
{

using namespace rime;
using namespace rime::service;

namespace
{

namespace fs = std::filesystem;

constexpr unsigned kDepth = 8;
constexpr double kLimitUs = 1000.0;
constexpr std::uint64_t kClosedRoundOps = 256;
// Requests per rate-search step: enough reads (three in four with
// writes on) for a read p99 with ten samples beyond it.
double
searchStepOps(bool writes)
{
    return writes ? 1500.0 : 1100.0;
}
constexpr unsigned kInFlightCap = 256;
// Rates are fixed numbers: the reference rate sits well below the
// wire path's depth-1 capacity (about 10k ops/s on a 4-core host)
// for reads, and below the fsync-bound write path.  The ladder steps
// by 2^(1/4).
struct Rates
{
    double fixed[3];
    double ladderFrom;
    double ladderTo;
};
constexpr Rates kReadRates{{1000.0, 2000.0, 4000.0}, 2000.0, 64000.0};
constexpr Rates kWriteRates{{250.0, 500.0, 1000.0}, 1000.0, 16000.0};

double
referenceRate(bool writes)
{
    return (writes ? kWriteRates : kReadRates).fixed[1];
}

/** One service + server + wire client + in-process session. */
struct Stack
{
    std::string journalDir;
    std::unique_ptr<RimeService> service;
    std::unique_ptr<net::RimeServer> server;
    std::unique_ptr<net::RimeClient> client;
    std::uint64_t session = 0;
    std::shared_ptr<Session> local;
    RangeSet wireRanges;
    RangeSet localRanges;

    ~Stack()
    {
        if (local)
            local->close();
        if (client) {
            if (session)
                client->closeSession(session);
            client->disconnect();
        }
        if (server)
            server->stop();
        server.reset();
        service.reset();
        if (!journalDir.empty()) {
            std::error_code ec;
            fs::remove_all(journalDir, ec);
        }
    }
};

ServiceConfig
serviceConfig(const std::string &journal_dir)
{
    ServiceConfig cfg;
    if (!journal_dir.empty()) {
        cfg.durability.dir = journal_dir;
        cfg.durability.fsyncEveryAppend = true;
        cfg.durability.snapshotIntervalOps = 2048;
        cfg.durability.recoveryMode = RecoveryMode::Snapshot;
    }
    return cfg;
}

SubmitFn
wireSubmit(net::RimeClient &client, std::uint64_t session)
{
    return [&client, session](Request req, std::function<void()> done) {
        return client.submit(session, std::move(req), std::move(done));
    };
}

SubmitFn
localSubmit(Session &s)
{
    return [&s](Request req, std::function<void()> done) {
        return s.submit(std::move(req), std::move(done));
    };
}

std::unique_ptr<Stack>
buildStack(const RunConfig &cfg, bool writes, int instance)
{
    auto st = std::make_unique<Stack>();
    if (writes) {
        st->journalDir = cfg.outDir + "/journal-" +
            std::to_string(::getpid()) + "-" + std::to_string(instance);
        std::error_code ec;
        fs::remove_all(st->journalDir, ec);
        fs::create_directories(st->journalDir);
    }
    st->service = std::make_unique<RimeService>(
        serviceConfig(st->journalDir));
    st->server = std::make_unique<net::RimeServer>(
        *st->service, net::ServerConfig{.tcp = "tcp:127.0.0.1:0", .unixPath = {}});
    if (!st->server->start())
        return nullptr;
    st->client = std::make_unique<net::RimeClient>(net::ClientConfig{
        .endpoint =
            "tcp:127.0.0.1:" + std::to_string(st->server->tcpPort())});
    if (!st->client->connect())
        return nullptr;
    st->session = st->client->openSession("bench", 1, kInFlightCap);
    if (st->session == 0)
        return nullptr;
    SessionConfig sc;
    sc.tenant = "local";
    sc.maxInFlight = kInFlightCap;
    st->local = st->service->openSession(sc);
    Rng rng(cfg.seed ^ 0x5E7EULL);
    if (!armRanges(wireSubmit(*st->client, st->session), rng,
                   st->wireRanges) ||
        !armRanges(localSubmit(*st->local), rng, st->localRanges))
        return nullptr;
    return st;
}

/** The service's stat tree, host-dependent stats included. */
class ServiceStats
{
  public:
    explicit ServiceStats(const RimeService &service)
    {
        StatRegistry reg;
        service.collectStats(reg);
        std::stringstream text;
        reg.dumpText(text);
        std::string key;
        double value = 0.0;
        while (text >> key >> value)
            lines_.emplace_back(key, value);
    }

    /** Sum of every stat named `stat`, across all groups. */
    double
    sum(const std::string &stat) const
    {
        const std::string suffix = "." + stat;
        double total = 0.0;
        for (const auto &[key, value] : lines_) {
            if (key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
                total += value;
        }
        return total;
    }

    /** Mean of histogram `hist`, pooled across all groups. */
    double
    histMean(const std::string &hist) const
    {
        const double n = sum(hist + ".count");
        double weighted = 0.0;
        std::map<std::string, double> counts;
        for (const auto &[key, value] : lines_)
            counts[key] = value;
        for (const auto &[key, value] : lines_) {
            const std::string suffix = "." + hist + ".mean";
            if (key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0) {
                const std::string base =
                    key.substr(0, key.size() - 5); // drop ".mean"
                weighted += value * counts[base + ".count"];
            }
        }
        return n > 0 ? weighted / n : 0.0;
    }

  private:
    std::vector<std::pair<std::string, double>> lines_;
};

/**
 * Untimed warm-up: closed-loop bursts at depth 8 for up to
 * kWarmupCapS, stopping early at the first reply that took 50 ms or
 * more.  The current event loop can lose a wakeup (a wake byte read
 * while its armed flag stays set), after which only socket reads and
 * the 100 ms poll timeout run it -- a state it never leaves.  Whether
 * a server process gets there depends on how its threads interleave
 * on the host's cores; stopping at the first stall means the timed
 * phases of a run that gets there are measured wholly in that state.
 * Returns whether it stalled.
 */
constexpr double kWarmupCapS = 2.0;

bool
warmUp(ServeTarget &target, Report &report)
{
    const auto t0 = Clock::now();
    const std::uint64_t stalls = target.stalls();
    do {
        report.count(runClosedLoop(target, kDepth, kClosedRoundOps));
    } while (target.stalls() == stalls && secondsSince(t0) < kWarmupCapS);
    return target.stalls() != stalls;
}

struct OpenPoint
{
    double rate = 0.0;
    LoopResult loop;
    Summary reads;
    Summary writes;
    Summary all;
    bool meets = false;
};

OpenPoint
openPoint(ServeTarget &target, double rate, double seconds)
{
    OpenPoint p;
    p.rate = rate;
    p.loop = runOpenLoop(target, {rate, seconds, 192});
    std::vector<double> reads = p.loop.readUs;
    std::vector<double> writes = p.loop.writeUs;
    std::vector<double> all = reads;
    all.insert(all.end(), writes.begin(), writes.end());
    p.reads = summarize(reads);
    p.writes = summarize(writes);
    p.all = summarize(all);
    const double backlog_ok = rate * kLimitUs / 1e6 + 8.0;
    p.meets = !p.loop.overloaded && p.loop.failed == 0 &&
        p.reads.tailPct >= 99.0 && p.reads.tail <= kLimitUs &&
        static_cast<double>(p.loop.backlogAtEnd) <= backlog_ok;
    return p;
}

/**
 * Layer phases of the traced run on `st`, all at the reference rate:
 * the wire path with spans (request -> net.client -> shard queue),
 * the in-process Session path on the same shard, and a one-member
 * ClusterRouter over the same server.
 */
void
layerPhases(const RunConfig &cfg, Stack &st, bool writes,
            double seconds, Report &report, const OpenPoint *untraced)
{
    const double rate = referenceRate(writes);
    SpanRecorder spans;

    ServeTarget wire(wireSubmit(*st.client, st.session), st.wireRanges,
                     writes, cfg.seed + 11);
    wire.traceInto(&spans, "net.client");
    const OpenPoint traced = openPoint(wire, rate, seconds * 0.4);
    report.count(traced.loop);

    ServeTarget local(localSubmit(*st.local), st.localRanges, writes,
                      cfg.seed + 12);
    local.traceInto(&spans, "service.session");
    const OpenPoint inproc = openPoint(local, rate, seconds * 0.3);
    report.count(inproc.loop);

    cluster::RouterConfig rc;
    rc.members.push_back(cluster::MemberConfig{
        "tcp:127.0.0.1:" + std::to_string(st.server->tcpPort()), {}});
    cluster::ClusterRouter router(rc);
    Summary routed{};
    if (router.connect()) {
        cluster::ClusterSessionConfig csc;
        csc.tenant = "routed";
        csc.maxInFlight = kInFlightCap;
        auto cs = router.openSession(csc);
        RangeSet ranges;
        Rng rng(cfg.seed ^ 0xC1ULL);
        const SubmitFn submit = [&cs](Request req,
                                      std::function<void()> done) {
            return cs->submit(std::move(req), std::move(done));
        };
        if (cs && armRanges(submit, rng, ranges)) {
            ServeTarget via(submit, ranges, false, cfg.seed + 13);
            const OpenPoint p = openPoint(via, rate, seconds * 0.3);
            report.count(p.loop);
            std::vector<double> rtt = via.readRttUs();
            routed = summarize(rtt);
        } else {
            report.fail("cluster router session could not be armed");
        }
        if (cs)
            cs->close();
        router.disconnect();
    } else {
        report.fail("cluster router could not connect");
    }

    std::vector<double> wire_rtt = wire.readRttUs();
    std::vector<double> local_rtt = local.readRttUs();
    std::vector<double> queue = wire.readQueueUs();
    std::vector<double> exec = local.readExecUs();
    const Summary w = summarize(wire_rtt);
    const Summary l = summarize(local_rtt);
    const Summary q = summarize(queue);
    const Summary e = summarize(exec);
    auto &L = report.layers;
    report.add(L, "service.shard.queue_wait_p50_us", q.p50, "us",
               q.count);
    report.add(L, "service.shard.queue_wait_p99_us", q.tail, "us",
               q.count);
    report.add(L, "service.shard.exec_p50_us", e.p50, "us", e.count);
    report.add(L, "service.shard.exec_p99_us", e.tail, "us", e.count);
    report.add(L, "net.hop_p50_us", w.p50 - l.p50, "us", w.count);
    report.add(L, "net.hop_p99_us", w.tail - l.tail, "us", w.count);
    report.add(L, "cluster.router.hop_p50_us", routed.p50 - w.p50, "us",
               routed.count);
    report.add(L, "cluster.router.hop_p99_us", routed.tail - w.tail,
               "us", routed.count);
    const double rejected = static_cast<double>(
        wire.rejected() + local.rejected());
    const double attempted = static_cast<double>(
        traced.loop.attempted + inproc.loop.attempted);
    report.add(L, "service.shard.rejected_frac",
               attempted > 0 ? rejected / attempted : 0.0, "ratio",
               static_cast<std::uint64_t>(attempted));
    const ServiceStats stats(*st.service);
    report.add(L, "service.shard.batch_ops_mean",
               stats.histMean("batchSizeHost"), "count",
               static_cast<std::uint64_t>(stats.sum("requests")));
    if (!hasLayer(report, "rimehw.fast.range_inits_per_extract")) {
        report.add(L, "rimehw.fast.range_inits_per_extract",
                   stats.sum("rangeInits") /
                       std::max(1.0, stats.sum("extractions")),
                   "ratio", static_cast<std::uint64_t>(
                                stats.sum("extractions")));
    }

    std::vector<double> late = traced.loop.lateUs;
    const Summary gl = summarize(late);
    report.add(L, "bench.gen_late_p99_ms", gl.tail / 1e3, "ms",
               gl.count);
    if (untraced && !hasLayer(report, "bench.trace_overhead_frac")) {
        report.add(L, "bench.trace_overhead_frac",
                   untraced->reads.p50 > 0
                       ? (traced.reads.p50 - untraced->reads.p50) /
                           untraced->reads.p50
                       : 0.0,
                   "ratio", traced.reads.count);
    }

    // Per-layer self times of the traced wire reads, by span name:
    // bench.request (generator lateness), net.client (wire round trip
    // minus shard queue wait: hop + execution), service.shard.queue.
    // The in-process session's self time is the execution alone, so
    // hop = net.client - service.session.
    const auto self = spans.selfTimesUs();
    const auto p50Of = [&](const char *name) {
        auto it = self.find(name);
        if (it == self.end())
            return 0.0;
        std::vector<double> v = it->second;
        return summarize(v).p50;
    };
    const double gen = p50Of("bench.request");
    const double hop_exec = p50Of("net.client");
    const double exec_only = p50Of("service.session");
    const double qwait = q.p50;
    const double sum = gen + (hop_exec - exec_only) + exec_only + qwait;
    std::printf("self-time p50 (us): bench %.1f + net.hop %.1f + "
                "shard.exec %.1f + shard.queue %.1f = %.1f vs traced "
                "read_p50 %.1f (gap %.1f%%)\n",
                gen, hop_exec - exec_only, exec_only, qwait, sum,
                traced.reads.p50,
                traced.reads.p50 > 0
                    ? 100.0 * (sum - traced.reads.p50) /
                        traced.reads.p50
                    : 0.0);
    report.add(report.detail, "bench.selftime_gap_frac",
               traced.reads.p50 > 0
                   ? (sum - traced.reads.p50) / traced.reads.p50
                   : 0.0,
               "ratio", traced.reads.count);
    writeSpans(cfg, spans, "serving");
}

/** Copy the journal as a crash image, recover it, read every range back. */
void
recoverAndCheck(Stack &st, const std::string &tenant,
                const RangeSet &ranges, Report &report,
                std::vector<double> &recovery_s)
{
    const std::string image = st.journalDir + "-image";
    std::error_code ec;
    fs::remove_all(image, ec);
    fs::copy(st.journalDir, image, fs::copy_options::recursive, ec);
    if (ec) {
        report.fail("could not copy the journal: " + ec.message());
        return;
    }
    const auto t0 = Clock::now();
    {
        RimeService recovered(serviceConfig(image));
        std::shared_ptr<Session> session;
        for (auto &s : recovered.recoveredSessions()) {
            if (s->tenant() == tenant)
                session = s;
        }
        if (!session) {
            report.fail("recovery lost the " + tenant + " session");
        } else {
            bool first = true;
            for (const auto &r : ranges.ranges) {
                ++report.attempted;
                const Response init =
                    session->init(r.start, r.end, KeyMode::UnsignedFixed)
                        .get();
                const Response all = session->sort(r.start, r.end).get();
                if (first) {
                    recovery_s.push_back(secondsSince(t0));
                    first = false;
                }
                bool ok = init.ok() && all.ok() &&
                    all.items.size() == r.sorted->size();
                for (std::size_t i = 0; ok && i < all.items.size(); ++i)
                    ok = all.items[i].raw == (*r.sorted)[i];
                if (!ok) {
                    ++report.failed;
                    report.fail("an acknowledged write did not read "
                                "back after recovery");
                }
            }
        }
    }
    fs::remove_all(image, ec);
}

} // namespace

Report
runServe(const RunConfig &cfg, bool writes, bool over_wire)
{
    Report report;
    const Rates &rates = writes ? kWriteRates : kReadRates;
    std::vector<double> setups;
    std::unique_ptr<Stack> st;
    for (int i = 0; i < kSetups; ++i) {
        st.reset();
        const auto t0 = Clock::now();
        st = buildStack(cfg, writes, i);
        setups.push_back(secondsSince(t0));
        if (!st) {
            report.fail("server stack failed to start");
            return report;
        }
    }

    RangeSet &ranges = over_wire ? st->wireRanges : st->localRanges;
    ServeTarget target(over_wire ? wireSubmit(*st->client, st->session)
                                 : localSubmit(*st->local),
                       ranges, writes, cfg.seed);
    const auto w0 = Clock::now();
    const bool stalled = warmUp(target, report);
    const double warmup_s = secondsSince(w0);

    const double S = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    const auto timed0 = Clock::now();
    std::vector<OpenPoint> fixed;
    for (const double rate : rates.fixed) {
        fixed.push_back(openPoint(target, rate, S * 0.08));
        report.count(fixed.back().loop);
    }
    const OpenPoint &ref = fixed[1];

    double max_rate = 0.0;
    for (double rate = rates.ladderFrom; rate <= rates.ladderTo * 1.001;
         rate *= 1.189207115) {
        const OpenPoint p =
            openPoint(target, rate, searchStepOps(writes) / rate);
        report.count(p.loop);
        if (!p.meets)
            break;
        max_rate = rate;
    }

    // The closed loop, which the end-to-end metrics come from, fills
    // the rest of the measured seconds, and at least half of them.
    Rounds closed;
    std::uint64_t drains = 0, drained = 0;
    const auto c0 = Clock::now();
    do {
        const LoopResult r = runClosedLoop(target, kDepth, kClosedRoundOps);
        report.count(r);
        drains += r.drains;
        drained += r.drainedOps;
        std::vector<double> round_us = r.readUs;
        if (writes)
            round_us.insert(round_us.end(), r.writeUs.begin(),
                            r.writeUs.end());
        closed.add(r.seconds, round_us);
    } while (secondsSince(c0) < S * 0.5 || secondsSince(timed0) < S);

    report.add(report.detail, "warmup_s", warmup_s, "s", 1);
    report.add(report.detail, "warmup_stalled", stalled ? 1.0 : 0.0,
               "bool", 1);
    // The end-to-end latency is the closed loop's (send to reply at
    // depth 8): reads only on serve-read, every op on serve-write,
    // where the writes (one op in four) own the p95.  The open-loop
    // latencies at the fixed rates are reported beside it; on the
    // current server they depend on when the lost wakeup strikes.
    // peak_rss_mb is taken here, before recovery: recovering holds
    // the whole journal in memory, and the journal grows with the
    // ops the run completed, so a faster server would read as a
    // bigger one.  Recovery's own peak is a detail line.
    addCommonEndToEnd(report, median(setups), closed,
                      writes ? 95.0 : 99.0);
    std::vector<double> recovery_s;
    if (writes) {
        recoverAndCheck(*st, over_wire ? "bench" : "local", ranges, report,
                        recovery_s);
        report.add(report.detail, "recovery_peak_rss_mb", peakRssMb(), "MB",
                   1);
    }
    auto &D = report.detail;
    report.add(D, "max_rate_ops_s", max_rate, "1/s", 1);
    for (const OpenPoint &p : fixed) {
        const std::string at = "@" + std::to_string(
                                         static_cast<int>(p.rate));
        report.add(D, "read_p50_us" + at, p.reads.p50, "us",
                   p.reads.count);
        report.add(D, "read_p99_us" + at, p.reads.tail, "us",
                   p.reads.count);
        if (writes) {
            report.add(D, "write_p50_us" + at, p.writes.p50, "us",
                       p.writes.count);
            report.add(D, "write_p99_us" + at, p.writes.tail, "us",
                       p.writes.count);
        }
    }
    if (writes)
        report.add(D, "recovery_s", median(recovery_s), "s",
                   recovery_s.size());
    report.add(D, "stalls_ge_50ms",
               static_cast<double>(target.stalls()), "count",
               target.completed());
    report.add(D, "drain_batch_mean",
               drains ? static_cast<double>(drained) /
                       static_cast<double>(drains)
                      : 0.0,
               "count", drains);
    {
        std::vector<double> late = ref.loop.lateUs;
        const Summary gl = summarize(late);
        report.add(D, "bench.gen_late_p99_ms", gl.tail / 1e3, "ms",
                   gl.count);
    }

    std::uint64_t stall_count = target.stalls();
    std::uint64_t stall_ops = target.completed();
    if (cfg.trace) {
        layerPhases(cfg, *st, writes, cfg.seconds / 2, report, &ref);
        if (!over_wire) {
            // The wire-only layer counts come from the same mix over
            // the stack's wire session.
            ServeTarget wire(wireSubmit(*st->client, st->session),
                             st->wireRanges, writes, cfg.seed + 14);
            const LoopResult r =
                runClosedLoop(wire, kDepth, kClosedRoundOps);
            report.count(r);
            stall_count = wire.stalls();
            stall_ops = wire.completed();
            drains = r.drains;
            drained = r.drainedOps;
        }
        report.add(report.layers, "net.stalls_ge_50ms",
                   static_cast<double>(stall_count), "count", stall_ops);
        report.add(report.layers, "net.client.drain_batch_mean",
                   drains ? static_cast<double>(drained) /
                           static_cast<double>(drains)
                          : 0.0,
                   "count", drains);
        if (writes) {
            const ServiceStats stats(*st->service);
            const double requests = stats.sum("requests");
            std::uintmax_t bytes = 0;
            std::error_code ec;
            for (const auto &e : fs::directory_iterator(st->journalDir,
                                                        ec)) {
                if (e.path().extension() == ".journal")
                    bytes += e.file_size(ec);
            }
            report.add(report.layers, "service.journal.bytes_per_op",
                       requests > 0 ? static_cast<double>(bytes) /
                               requests
                                    : 0.0,
                       "B", static_cast<std::uint64_t>(requests));
            report.add(report.layers, "service.journal.commits_per_op",
                       requests > 0
                           ? stats.sum("groupCommitsHost") / requests
                           : 0.0,
                       "ratio", static_cast<std::uint64_t>(requests));
        }
    }
    return report;
}

void
runServeLayers(const RunConfig &cfg, Report &report)
{
    auto st = buildStack(cfg, false, kSetups);
    if (!st) {
        report.fail("server stack failed to start");
        return;
    }
    ServeTarget wire(wireSubmit(*st->client, st->session),
                     st->wireRanges, false, cfg.seed);
    report.count(runClosedLoop(wire, kDepth, 1000));
    const OpenPoint ref = openPoint(wire, referenceRate(false), 1.0);
    report.count(ref.loop);
    layerPhases(cfg, *st, false, 2.0, report, &ref);
    report.add(report.layers, "net.stalls_ge_50ms",
               static_cast<double>(wire.stalls()), "count",
               wire.completed());
    const LoopResult r = runClosedLoop(wire, kDepth, kClosedRoundOps);
    report.count(r);
    report.add(report.layers, "net.client.drain_batch_mean",
               r.drains ? static_cast<double>(r.drainedOps) /
                       static_cast<double>(r.drains)
                        : 0.0,
               "count", r.drains);
}

} // namespace rimebench
