/**
 * @file
 * The per-layer ledger of the traced run: every layer's public entry
 * points timed directly from here, on fixed inputs generated from the
 * seed in the shapes the workloads use (the 1M-key bit-planes of
 * `bitlevel`, the 4096-key ranges and TopK-64 of `serve-*`, the
 * mixed journal records and frames of `serve-write`, the 32K-key sort
 * sample of `figures`).  A workload's own traced phase fills in the
 * metrics it measures itself; the ledger adds the rest, so every
 * traced run reports every per-layer metric.
 */

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.hh"
#include "cachesim/hierarchy.hh"
#include "common/bitio.hh"
#include "common/rng.hh"
#include "memsim/bandwidth_probe.hh"
#include "memsim/dram_system.hh"
#include "rime/api.hh"
#include "rimehw/chip.hh"
#include "rimehw/fast_model.hh"
#include "rimehw/kernels.hh"
#include "serve_target.hh"
#include "service/journal.hh"
#include "service/wire.hh"
#include "sort/access_sink.hh"
#include "sort/sorters.hh"

namespace rimebench
{

using namespace rime;

namespace
{

constexpr std::uint64_t kBigKeys = 1 << 20;
constexpr unsigned kWordBits = 32;

std::vector<std::uint64_t>
randomKeys(std::uint64_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> v(n);
    for (auto &k : v)
        k = rng() & 0xFFFFFFFFULL;
    return v;
}

void
addSummary(Report &r, const std::string &prefix, std::vector<double> v)
{
    const Summary s = summarize(v);
    r.add(r.layers, prefix + "_p50_us", s.p50, "us", s.count);
    r.add(r.layers, prefix + "_p99_us", s.tail, "us", s.count);
}

/**
 * The scan kernel on 1M-key bit-planes: a full MSB-to-LSB column
 * search with commit, as RimeChip's fused fault-free path runs it.
 */
void
kernelProbe(std::uint64_t seed, Report &report)
{
    const auto keys = randomKeys(kBigKeys, seed ^ 0xB17ULL);
    const unsigned words = static_cast<unsigned>(kBigKeys / 64);
    std::vector<rimehw::WordVector> planes(kWordBits,
                                           rimehw::WordVector(words));
    for (std::uint64_t i = 0; i < kBigKeys; ++i) {
        for (unsigned b = 0; b < kWordBits; ++b) {
            if ((keys[i] >> b) & 1)
                planes[b][i / 64] |= 1ULL << (i % 64);
        }
    }
    const auto &k = rimehw::kernels::active();
    rimehw::WordVector select(words);
    std::vector<double> ns;
    for (int rep = 0; rep < 24; ++rep) {
        k.fill(select.data(), ~0ULL, words);
        const std::int64_t t0 = nowNs();
        for (int b = kWordBits - 1; b >= 0; --b) {
            const auto sig = k.searchSignals(planes[b].data(),
                                             select.data(), words,
                                             false);
            if (sig.anyMatch && sig.anyMismatch)
                k.commitSearch(select.data(), planes[b].data(), words,
                               false);
        }
        ns.push_back(static_cast<double>(nowNs() - t0));
        if (k.popcount(select.data(), words) == 0)
            report.fail("kernel scan lost every candidate");
    }
    report.add(report.layers, "rimehw.kernels.scan_ns_per_kkey",
               median(ns) / (kBigKeys / 1e3), "ns", ns.size());
}

/** RimeChip extractions over one 1M-key range. */
void
chipProbe(std::uint64_t seed, Report &report)
{
    rimehw::RimeChip chip;
    chip.configure(kWordBits, KeyMode::UnsignedFixed);
    const auto keys = randomKeys(kBigKeys, seed ^ 0xB17ULL);
    for (std::uint64_t i = 0; i < kBigKeys; ++i)
        chip.writeValue(i, keys[i]);
    chip.initRange(0, kBigKeys);
    auto sorted = keys;
    std::partial_sort(sorted.begin(), sorted.begin() + 1100,
                      sorted.end());
    std::vector<double> us;
    double steps = 0;
    for (std::uint64_t i = 0; i < 1100; ++i) {
        const std::int64_t t0 = nowNs();
        const auto r = chip.extract(0, kBigKeys, false);
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        steps += r.steps;
        if (!r.found || r.raw != sorted[i]) {
            report.fail("RimeChip extraction order differs from "
                        "std::sort");
            break;
        }
    }
    addSummary(report, "rimehw.chip.scan", us);
    report.add(report.layers, "rimehw.chip.steps_per_extract",
               steps / static_cast<double>(us.size()), "count",
               us.size());
}

/** FastRime extractions in the serving shape: TopK-64 of 4096 keys. */
void
fastProbe(std::uint64_t seed, Report &report)
{
    rimehw::FastRime fast;
    fast.configure(kWordBits, KeyMode::UnsignedFixed);
    const auto keys = randomKeys(kRanges * kRangeKeys, seed ^ 0xFA57ULL);
    for (std::uint64_t i = 0; i < keys.size(); ++i)
        fast.writeValue(i, keys[i]);
    std::vector<double> us;
    for (unsigned round = 0; round < 2; ++round) {
        for (unsigned r = 0; r < kRanges; ++r) {
            const std::uint64_t b = r * kRangeKeys;
            fast.initRange(b, b + kRangeKeys);
            for (std::uint64_t i = 0; i < kTopK; ++i) {
                const std::int64_t t0 = nowNs();
                const auto e = fast.extract(b, b + kRangeKeys, false);
                us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
                if (!e.found)
                    report.fail("FastRime drained a full range early");
            }
        }
    }
    addSummary(report, "rimehw.fast.extract", us);
    if (!hasLayer(report, "rimehw.fast.range_inits_per_extract")) {
        report.add(report.layers, "rimehw.fast.range_inits_per_extract",
                   fast.stats().get("rangeInits") /
                       std::max(1.0, fast.stats().get("extractions")),
                   "ratio", us.size());
    }
}

/** RimeLibrary (default config) TopK-64, bulk store, and malloc. */
void
apiProbe(std::uint64_t seed, Report &report)
{
    LibraryConfig cfg;
    cfg.autoPublishStats = false;
    RimeLibrary lib(cfg);
    const auto keys = randomKeys(kRangeKeys, seed ^ 0xA91ULL);
    auto sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t bytes = kRangeKeys * lib.wordBytes();
    std::vector<double> malloc_us, store_us, topk_us;
    std::vector<Addr> held;
    for (unsigned i = 0; i < 1100; ++i) {
        const std::int64_t t0 = nowNs();
        const auto a = lib.rimeMalloc(bytes);
        malloc_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        if (!a) {
            report.fail("rimeMalloc failed in the ledger");
            return;
        }
        held.push_back(*a);
        // Keep 16 live, like a serving session.
        if (held.size() > kRanges) {
            lib.rimeFree(held.front());
            held.erase(held.begin());
        }
    }
    for (unsigned i = 0; i < 64; ++i) {
        const Addr a = held[i % held.size()];
        const std::int64_t t0 = nowNs();
        lib.storeArray(a, keys);
        store_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    for (unsigned i = 0; i < 1100; ++i) {
        const Addr a = held[i % held.size()];
        const std::int64_t t0 = nowNs();
        lib.rimeInit(a, a + bytes, KeyMode::UnsignedFixed, kWordBits);
        bool ok = true;
        for (std::uint64_t j = 0; j < kTopK; ++j) {
            const auto e = lib.rimeMinChecked(a, a + bytes);
            ok = ok && e.ok() && e.item.raw == sorted[j];
        }
        topk_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        if (!ok) {
            report.fail("RimeLibrary TopK differs from std::sort");
            break;
        }
    }
    if (!hasLayer(report, "rime.api.topk_p50_us"))
        addSummary(report, "rime.api.topk", topk_us);
    if (!hasLayer(report, "rime.api.store_us_per_kvalue")) {
        report.add(report.layers, "rime.api.store_us_per_kvalue",
                   median(store_us) / (kRangeKeys / 1e3), "us",
                   store_us.size());
    }
    const Summary m = summarize(malloc_us);
    report.add(report.layers, "rime.driver.malloc_p99_us", m.tail, "us",
               m.count);
}

/** The figure sample's sort stream through cachesim, and memsim. */
void
simulatorProbe(std::uint64_t seed, Report &report)
{
    Rng rng(seed ^ 0xCAC4EULL);
    sort::Keys keys(1 << 15);
    for (auto &k : keys)
        k = static_cast<std::uint32_t>(rng());
    cachesim::Hierarchy h(1);
    sort::CacheSink sink(h);
    const std::int64_t t0 = nowNs();
    sort::runSort(sort::Algorithm::Mergesort, keys, 0, sink);
    const double ns = static_cast<double>(nowNs() - t0);
    const double accesses =
        h.stats().get("loads") + h.stats().get("stores");
    report.add(report.layers, "cachesim.accesses", accesses, "count", 1);
    report.add(report.layers, "cachesim.mem_requests",
               static_cast<double>(h.memAccesses()), "count", 1);
    report.add(report.layers, "cachesim.ns_per_access",
               accesses > 0 ? ns / accesses : 0.0, "ns", 1);

    // The perf model's probe: 200k requests, 3:1 reads, 64 streams.
    constexpr std::uint64_t requests = 200000;
    memsim::DramSystem ddr(memsim::DramParams::offChipDdr4());
    const std::int64_t m0 = nowNs();
    memsim::probeBandwidth(ddr, memsim::AccessPattern::Random, requests,
                           0.75, 64);
    report.add(report.layers, "memsim.ns_per_request",
               static_cast<double>(nowNs() - m0) / requests, "ns", 1);
}

/** serve-write's journal records: the 8-op mix, as one shard writes it. */
std::vector<std::vector<std::uint8_t>>
mixRecords(std::uint64_t seed)
{
    std::vector<std::vector<std::uint8_t>> out;
    Rng rng(seed ^ 0x70A7ULL);
    for (unsigned i = 0; i < 16 * kMixCycle; ++i) {
        service::JournalRecord rec;
        rec.kind = service::JournalRecordKind::Op;
        rec.seq = i + 1;
        rec.sessionId = 1;
        const unsigned slot = i % kMixCycle;
        rec.req.start = 0x1000;
        rec.req.end = 0x1000 + kRangeKeys * 4;
        if (slot == kMixCycle - 2) {
            rec.req.kind = service::RequestKind::StoreArray;
            rec.req.values.resize(kRangeKeys);
            for (auto &v : rec.req.values)
                v = rng() & 0xFFFFFFFFULL;
        } else if (slot == kMixCycle - 1) {
            rec.req.kind = service::RequestKind::Init;
        } else {
            rec.req.kind = service::RequestKind::TopK;
            rec.req.count = kTopK;
        }
        out.push_back(service::encodeRecord(rec));
    }
    return out;
}

/** JournalWriter append + commitBatch with fsync, and the read-back. */
void
journalProbe(const RunConfig &cfg, Report &report)
{
    const auto records = mixRecords(cfg.seed);
    const std::string path = cfg.outDir + "/ledger-" +
        std::to_string(::getpid()) + ".journal";
    std::vector<double> us;
    double bytes = 0;
    {
        service::JournalWriter w;
        w.open(path, true);
        for (std::size_t i = 0; i < records.size(); ++i) {
            const std::int64_t t0 = nowNs();
            w.bufferAppend(i + 1, records[i]);
            w.commitBatch();
            us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            bytes += static_cast<double>(records[i].size());
        }
        w.close();
    }
    addSummary(report, "service.journal.commit", us);
    const std::int64_t t0 = nowNs();
    const auto scan = service::readJournal(path);
    const double secs = static_cast<double>(nowNs() - t0) / 1e9;
    if (scan.records.size() != records.size())
        report.fail("journal read back a different record count");
    report.add(report.layers, "service.journal.replay_records_per_s",
               secs > 0 ? static_cast<double>(scan.records.size()) / secs
                        : 0.0,
               "1/s", scan.records.size());
    if (!hasLayer(report, "service.journal.bytes_per_op")) {
        report.add(report.layers, "service.journal.bytes_per_op",
                   bytes / static_cast<double>(records.size()), "B",
                   records.size());
        report.add(report.layers, "service.journal.commits_per_op", 1.0,
                   "ratio", records.size());
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

/** encodeMessage / readFrame + decodeMessage on the serving frames. */
void
wireProbe(std::uint64_t seed, Report &report)
{
    using service::wire::Message;
    using service::wire::MessageKind;
    std::vector<Message> frames;
    Rng rng(seed ^ 0x3A3EULL);
    Message topk;
    topk.kind = MessageKind::Request;
    topk.sessionId = 1;
    topk.req.kind = service::RequestKind::TopK;
    topk.req.count = kTopK;
    frames.push_back(topk);
    Message reply;
    reply.kind = MessageKind::Response;
    reply.sessionId = 1;
    reply.resp.status = service::ServiceStatus::Ok;
    for (std::uint64_t i = 0; i < kTopK; ++i)
        reply.resp.items.push_back({rng() & 0xFFFFFFFFULL, i});
    frames.push_back(reply);
    Message store;
    store.kind = MessageKind::Request;
    store.sessionId = 1;
    store.req.kind = service::RequestKind::StoreArray;
    store.req.values.resize(kRangeKeys);
    for (auto &v : store.req.values)
        v = rng() & 0xFFFFFFFFULL;
    frames.push_back(store);

    std::vector<double> enc, dec;
    for (int rep = 0; rep < 15; ++rep) {
        std::vector<std::uint8_t> buf;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < 64; ++i) {
            for (const Message &m : frames)
                service::wire::encodeMessage(buf, m);
        }
        const std::int64_t t1 = nowNs();
        std::size_t off = 0;
        std::vector<std::uint8_t> payload;
        Message out;
        std::size_t decoded = 0;
        while (readFrame(buf.data(), buf.size(), off, payload) ==
               FrameStatus::Ok) {
            if (service::wire::decodeMessage(payload, out))
                ++decoded;
        }
        const std::int64_t t2 = nowNs();
        if (decoded != 64 * frames.size())
            report.fail("wire frames did not decode back");
        const double kb = static_cast<double>(buf.size()) / 1024.0;
        enc.push_back(static_cast<double>(t1 - t0) / kb);
        dec.push_back(static_cast<double>(t2 - t1) / kb);
    }
    report.add(report.layers, "service.wire.encode_ns_per_kb",
               median(enc), "ns", enc.size());
    report.add(report.layers, "service.wire.decode_ns_per_kb",
               median(dec), "ns", dec.size());
}

} // namespace

bool
hasLayer(const Report &report, const std::string &name)
{
    for (const Metric &m : report.layers) {
        if (m.name == name)
            return true;
    }
    return false;
}

void
addCommonEndToEnd(Report &report, double setup_s, const Rounds &w,
                  double max_pct)
{
    auto &E = report.endToEnd;
    std::vector<double> op_us = w.opUs;
    const Summary lat = summarize(op_us, max_pct);
    report.add(E, "setup_s", setup_s, "s", kSetups);
    report.add(E, "wall_s", median(w.roundSeconds), "s",
               w.roundSeconds.size());
    report.add(E, "ops_per_s",
               w.seconds > 0 ? static_cast<double>(w.opUs.size()) /
                       w.seconds
                             : 0.0,
               "1/s", w.opUs.size());
    report.add(E, "p50_us", lat.p50, "us", lat.count);
    report.add(E, "tail_us", lat.tail, "us", lat.count);
    report.add(report.detail,
               "tail_is_p" + std::to_string(static_cast<int>(
                                 lat.tailPct)),
               lat.tailPct, "pct", lat.count);
    report.add(E, "peak_rss_mb", peakRssMb(), "MB", 1);
}

void
writeSpans(const RunConfig &cfg, const SpanRecorder &spans,
           const char *part)
{
    const std::string path = cfg.outDir + "/trace-" + cfg.workload +
        "-" + std::to_string(cfg.seed) + "-" + part + ".json";
    if (!spans.writeChromeTrace(path))
        std::printf("warning: could not write %s\n", path.c_str());
    else
        std::printf("spans: %zu written to %s\n", spans.spans().size(),
                    path.c_str());
}

void
runLedger(const RunConfig &cfg, Report &report)
{
    kernelProbe(cfg.seed, report);
    chipProbe(cfg.seed, report);
    fastProbe(cfg.seed, report);
    apiProbe(cfg.seed, report);
    simulatorProbe(cfg.seed, report);
    journalProbe(cfg, report);
    wireProbe(cfg.seed, report);
    if (!hasLayer(report, "sort.profile_s"))
        runFigureLayers(cfg, report);
    if (!hasLayer(report, "service.shard.queue_wait_p50_us"))
        runServeLayers(cfg, report);
}

} // namespace rimebench
