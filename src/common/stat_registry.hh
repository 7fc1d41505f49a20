/**
 * @file
 * Central registry of every component's StatGroup, organised as a tree
 * by dotted path ("chip.0", "driver", "api").  The registry can hold
 * groups of two kinds: *attached* groups still owned by a live
 * component (chips, devices, drivers expose `StatGroup &stats()`), and
 * *owned* groups created by the registry itself (accumulators that
 * outlive the components merged into them).
 *
 * Dumps come in two flavours:
 *  - dumpText: "path.stat value" lines for humans, every stat.
 *  - dumpJson: a nested JSON tree, machine-readable.  Stat names with
 *    the "*WallNs" suffix carry host wall-clock time and are excluded
 *    by default, so the JSON dump of a simulation is bit-identical
 *    across runs and across RIME_SIMD settings.
 *
 * The process-wide accumulator `StatRegistry::process()` collects the
 * stats of components that have been destroyed (RimeLibrary publishes
 * into it on destruction), letting benches dump a whole run's stats
 * even when every library instance was scoped.
 *
 * Path segments must not be named "stats" or "hists": those keys are
 * reserved for the group payload inside the JSON tree.
 */

#ifndef RIME_COMMON_STAT_REGISTRY_HH
#define RIME_COMMON_STAT_REGISTRY_HH

#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "stats.hh"

namespace rime
{

/** A tree of StatGroups addressed by dotted path. */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Attach a component-owned group under `path`.  The component must
     * outlive the registration (detach before destruction, or let the
     * owning object tear both down together).
     */
    void attach(const std::string &path, StatGroup &group);

    /** Remove an attached group (no-op for unknown paths). */
    void detach(const std::string &path);

    /** Create (or fetch) a registry-owned group under `path`. */
    StatGroup &group(const std::string &path);

    /** True when a group (attached or owned) lives at `path`. */
    bool has(const std::string &path) const;

    /** Merge one group's stats into the owned group at `path`. */
    void mergeGroup(const std::string &path, const StatGroup &from);

    /**
     * Merge every group of `other` into this registry's owned tree,
     * each under `prefix` + its original path.  The serving layer uses
     * this to collect per-shard library registries into one tree
     * ("shard.0.api", "shard.1.chip.3", ...).
     */
    void mergeRegistry(const StatRegistry &other,
                       const std::string &prefix = "");

    /** Reset every attached and owned group. */
    void resetAll();

    /** "path.stat value" lines over the whole tree, sorted by path. */
    void dumpText(std::ostream &os) const;

    /**
     * The full tree as nested JSON.  Host-dependent stats ("*WallNs"
     * wall-clock values and "*Host" scheduling-dependent values) are
     * excluded unless `include_wall_clock` is set, keeping the dump
     * deterministic across thread counts and runs.
     */
    void dumpJson(std::ostream &os,
                  bool include_wall_clock = false) const;

    /** The process-wide accumulator registry. */
    static StatRegistry &process();

  private:
    /** Sorted combined view of attached + owned groups. */
    std::map<std::string, const StatGroup *> combined() const;

    mutable std::mutex mutex_;
    std::map<std::string, StatGroup *> attached_;
    std::map<std::string, std::unique_ptr<StatGroup>> owned_;
};

} // namespace rime

#endif // RIME_COMMON_STAT_REGISTRY_HH
