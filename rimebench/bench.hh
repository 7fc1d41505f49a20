/**
 * @file
 * The workloads and the per-layer ledger, as main() sees them.
 */

#ifndef RIMEBENCH_BENCH_HH
#define RIMEBENCH_BENCH_HH

#include <cstdint>
#include <string>

#include "driver.hh"
#include "spans.hh"

namespace rimebench
{

/** One invocation's arguments. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured seconds (set-up excluded). */
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the span file and scratch journals. */
    std::string outDir = ".";
};

/** Every workload builds its state this many times; setup_s is the median. */
inline constexpr int kSetups = 9;

Report runFigures(const RunConfig &cfg);
Report runBitlevel(const RunConfig &cfg);
/**
 * serve-read (writes off) and serve-write (writes on) go over loopback
 * TCP; serve-inproc runs serve-write's mix through an in-process
 * Session on the same service.
 */
Report runServe(const RunConfig &cfg, bool writes, bool over_wire);

/** Per-round self seconds of the figure layers, from round spans. */
void addFigureLayers(Report &report, const SpanRecorder &spans,
                     std::size_t rounds);
/** One traced figure round on the seed's slice, for the ledger. */
void runFigureLayers(const RunConfig &cfg, Report &report);
/** The serving-layer phases on a fresh serve-read stack. */
void runServeLayers(const RunConfig &cfg, Report &report);

/**
 * Per-layer metrics that the workload's own traced phase does not
 * produce: each layer's public entry points timed directly, on fixed
 * inputs generated from the seed in the workloads' shapes.  Appends
 * to report.layers every ledger metric not already present.
 */
void runLedger(const RunConfig &cfg, Report &report);

/** True when `report.layers` already holds `name`. */
bool hasLayer(const Report &report, const std::string &name);

/**
 * Add the end-to-end metrics every workload reports, from the whole
 * timed phase `r`: wall_s (median round), ops_per_s, p50_us and
 * tail_us (the percentile rule capped at `max_pct`), and peak_rss_mb.
 */
void addCommonEndToEnd(Report &report, double setup_s, const Rounds &r,
                       double max_pct);

/** Write `spans` to <outDir>/trace-<workload>-<seed>-<part>.json. */
void writeSpans(const RunConfig &cfg, const SpanRecorder &spans,
                const char *part);

} // namespace rimebench

#endif // RIMEBENCH_BENCH_HH
