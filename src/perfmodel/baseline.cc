#include "baseline.hh"

#include <limits>

namespace rime::perfmodel
{

BaselinePerfModel::BaselinePerfModel(const cpusim::CoreParams &cores,
                                     std::uint64_t probe_requests,
                                     const BaselineCalibration &cal)
    : model_(cores), probeRequests_(probe_requests),
      calibration_(cal),
      ddr4_(std::make_unique<memsim::DramSystem>(
          memsim::DramParams::offChipDdr4())),
      hbm_(std::make_unique<memsim::DramSystem>(
          memsim::DramParams::inPackageHbm()))
{}

double
BaselinePerfModel::idleLatencyNs(SystemKind system)
{
    // probeIdleLatencyNs resets the system to idle before its chain,
    // so the result depends only on the system: probe it once.
    const int idx = system == SystemKind::OffChipDdr4 ? 0 : 1;
    if (idleLatencyNs_[idx] == 0.0) {
        memsim::DramSystem &mem = idx == 0 ? *ddr4_ : *hbm_;
        // Dependent-chain latency; the closed-loop probe's average
        // includes unbounded queueing and is not what a core's miss
        // chain experiences.
        idleLatencyNs_[idx] =
            std::max(memsim::probeIdleLatencyNs(mem, 2000), 20.0);
    }
    return idleLatencyNs_[idx];
}

cpusim::MemoryEnvironment
BaselinePerfModel::rawEnvironment(SystemKind system,
                                  memsim::AccessPattern pattern,
                                  unsigned streams)
{
    streams = std::min(std::max(streams, 1u), 64u);
    const auto key = std::make_tuple(static_cast<int>(system),
                                     static_cast<int>(pattern),
                                     streams);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    cpusim::MemoryEnvironment env;
    if (system == SystemKind::Unlimited) {
        env.sustainedGBps = std::numeric_limits<double>::infinity();
        env.loadedLatencyNs = 60.0;
    } else {
        memsim::DramSystem &mem =
            system == SystemKind::OffChipDdr4 ? *ddr4_ : *hbm_;
        env.sustainedGBps = memsim::probeBandwidth(
            mem, pattern, probeRequests_, 0.75, streams).sustainedGBps;
        env.loadedLatencyNs = idleLatencyNs(system);
    }
    cache_.emplace(key, env);
    return env;
}

cpusim::MemoryEnvironment
BaselinePerfModel::environment(SystemKind system,
                               memsim::AccessPattern pattern,
                               unsigned streams)
{
    if (!calibration_.enabled || system == SystemKind::Unlimited)
        return rawEnvironment(system, pattern, streams);

    // Anchor to the paper's measured sustained bandwidth, scaled by
    // the Figure-1(c) growth with the number of active streams.  No
    // bandwidth probe runs: the anchor replaces its only output.
    const int sys_idx = system == SystemKind::OffChipDdr4 ? 0 : 1;
    const int pat_idx = static_cast<int>(pattern);
    const double anchor =
        calibration_.anchorGBps[sys_idx][pat_idx];
    const double s = std::min<double>(std::max(streams, 1u), 64) /
        64.0;
    cpusim::MemoryEnvironment env;
    env.sustainedGBps = anchor *
        (calibration_.coreFloor + (1.0 - calibration_.coreFloor) * s);
    env.loadedLatencyNs =
        idleLatencyNs(system) * calibration_.latencyScale;
    return env;
}

double
BaselinePerfModel::sortThroughputMKps(const sort::SortModel &sorts,
                                      sort::Algorithm algo,
                                      std::uint64_t n, unsigned cores,
                                      SystemKind system)
{
    return sortThroughputMKps(sorts.profile(algo, n, cores), algo, n,
                              cores, system);
}

double
BaselinePerfModel::sortThroughputMKps(const sort::SortProfile &profile,
                                      sort::Algorithm algo,
                                      std::uint64_t n, unsigned cores,
                                      SystemKind system)
{
    cpusim::WorkloadProfile w;
    w.name = sort::algorithmName(algo);
    w.instructions = profile.instructions;
    w.memReads = profile.memReads;
    w.memWrites = profile.memWrites;
    w.baseIpc = profile.baseIpc;
    w.mlp = profile.mlp;
    w.parallelFraction = 0.98;
    const auto est = estimate(w, profile.pattern, system, cores);
    return est.totalSeconds > 0
        ? static_cast<double>(n) / est.totalSeconds / 1e6 : 0.0;
}

} // namespace rime::perfmodel
