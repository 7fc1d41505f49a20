/**
 * @file
 * rimebench: one workload of the RIME stack benchmark per invocation.
 *
 *   rimebench --workload figures|bitlevel|serve-read|serve-write|serve-inproc
 *             --seed N --seconds S --trace 0|1 [--out-dir D] [--rev R]
 *
 * Prints every metric with its unit and sample count, then, as the
 * last line, one JSON object: {"correct","attempted","failed",
 * "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1).  Exits 1 on any correctness failure, 2 on bad
 * arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "rimehw/kernels.hh"

#ifndef RIMEBENCH_BUILD_TYPE
#define RIMEBENCH_BUILD_TYPE "unknown"
#endif

using namespace rimebench;

namespace
{

/** Every per-layer metric a traced run must report. */
const char *const kLayerMetrics[] = {
    "rimehw.kernels.scan_ns_per_kkey",
    "rimehw.chip.scan_p50_us",
    "rimehw.chip.scan_p99_us",
    "rimehw.chip.steps_per_extract",
    "rimehw.fast.extract_p50_us",
    "rimehw.fast.extract_p99_us",
    "rimehw.fast.range_inits_per_extract",
    "rime.api.topk_p50_us",
    "rime.api.topk_p99_us",
    "rime.api.store_us_per_kvalue",
    "rime.driver.malloc_p99_us",
    "rime.ops.sort_s",
    "sort.profile_s",
    "cachesim.accesses",
    "cachesim.mem_requests",
    "cachesim.ns_per_access",
    "memsim.ns_per_request",
    "workloads.heap_s",
    "perfmodel.derive_s",
    "service.shard.queue_wait_p50_us",
    "service.shard.queue_wait_p99_us",
    "service.shard.exec_p50_us",
    "service.shard.exec_p99_us",
    "service.shard.batch_ops_mean",
    "service.shard.rejected_frac",
    "service.journal.commit_p50_us",
    "service.journal.commit_p99_us",
    "service.journal.bytes_per_op",
    "service.journal.commits_per_op",
    "service.journal.replay_records_per_s",
    "service.wire.encode_ns_per_kb",
    "service.wire.decode_ns_per_kb",
    "net.hop_p50_us",
    "net.hop_p99_us",
    "net.stalls_ge_50ms",
    "net.client.drain_batch_mean",
    "cluster.router.hop_p50_us",
    "cluster.router.hop_p99_us",
    "bench.gen_late_p99_ms",
    "bench.trace_overhead_frac",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "rimebench: %s\nusage: rimebench --workload "
                 "figures|bitlevel|serve-read|serve-write|serve-inproc --seed N "
                 "--seconds S --trace 0|1 [--out-dir D] [--rev R]\n",
                 why);
    return 2;
}

void
printMetrics(const char *group, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("%-9s %-40s %16.6g %-6s n=%llu\n", group,
                    m.name.c_str(), m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    rime::setVerbose(false);
    RunConfig cfg;
    Stamp stamp;
    stamp.rev = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            cfg.workload = value;
        } else if (key == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !value.empty();
        } else if (key == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end && *end == '\0' && cfg.seconds > 0;
        } else if (key == "--trace") {
            have_trace = value == "0" || value == "1";
            cfg.trace = value == "1";
        } else if (key == "--out-dir") {
            cfg.outDir = value;
        } else if (key == "--rev") {
            stamp.rev = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Report report;
    if (cfg.workload == "figures")
        report = runFigures(cfg);
    else if (cfg.workload == "bitlevel")
        report = runBitlevel(cfg);
    else if (cfg.workload == "serve-read")
        report = runServe(cfg, false, true);
    else if (cfg.workload == "serve-write")
        report = runServe(cfg, true, true);
    else if (cfg.workload == "serve-inproc")
        report = runServe(cfg, true, false);
    else
        return usage(("unknown workload '" + cfg.workload + "'").c_str());

    if (cfg.trace) {
        runLedger(cfg, report);
        for (const char *name : kLayerMetrics) {
            if (!hasLayer(report, name))
                report.fail(std::string("per-layer metric missing: ") +
                            name);
        }
        for (std::size_t i = 0; i < report.layers.size(); ++i) {
            for (std::size_t j = 0; j < i; ++j) {
                if (report.layers[i].name == report.layers[j].name)
                    report.fail("per-layer metric reported twice: " +
                                report.layers[i].name);
            }
        }
    }

    stamp.isa = rime::rimehw::kernels::isaName();
    stamp.nproc = std::thread::hardware_concurrency();
    stamp.buildType = RIMEBENCH_BUILD_TYPE;
    stamp.workload = cfg.workload;
    stamp.seed = cfg.seed;
    stamp.trace = cfg.trace;
    std::printf("%s\n", stampLine(stamp).c_str());
    printMetrics("e2e", report.endToEnd);
    printMetrics("detail", report.detail);
    printMetrics("layer", report.layers);
    std::printf("%-9s %-40s %16.6g %-6s n=%llu\n", "e2e", "failed_frac",
                report.attempted
                    ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                    : 0.0,
                "ratio",
                static_cast<unsigned long long>(report.attempted));
    for (const std::string &e : report.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("%s\n",
                resultJson(report, cfg.trace ? report.layers
                                             : report.endToEnd)
                    .c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
