/**
 * @file
 * Deterministic RRAM fault injection (stuck-at, wear-out, read
 * disturb) for the bit-level chip model.
 *
 * Every fault decision is a pure function of a seed and the cell's
 * coordinates, never of visitation order, so a faulty chip is exactly
 * reproducible and bit-identical under either kernel table:
 *
 *  - Stuck-at-0/1 cells are a manufacturing-time property of each
 *    (array, row, col) coordinate.  They are baked into the stored
 *    bits when the model is attached, so column searches observe the
 *    corrupted bits with zero extra work on the hot path.
 *  - Wear-out freezes a cell at its currently stored value once the
 *    write count of its memory block (tracked by EnduranceTracker)
 *    exceeds the cell's individual budget.  A frozen cell can still
 *    be read correctly; a write that tries to change it fails, which
 *    the chip's write-verify catches.
 *  - Read disturb transiently flips sensed bits.  Flips are keyed by
 *    (array, col, word, epoch) where the epoch counter is advanced
 *    serially by the chip controller -- every probe of one step
 *    observes the same epoch.
 */

#ifndef RIME_RIMEHW_FAULTS_HH
#define RIME_RIMEHW_FAULTS_HH

#include <cstdint>

namespace rime::rimehw
{

/** Fault-injection rates and self-repair provisioning. */
struct FaultParams
{
    /** Seed for every per-cell fault decision. */
    std::uint64_t seed = 1;
    /** Probability a cell is manufactured stuck at 0. */
    double stuckAt0Rate = 0.0;
    /** Probability a cell is manufactured stuck at 1. */
    double stuckAt1Rate = 0.0;
    /** Per-cell probability of a transient sensing flip per read. */
    double readDisturbRate = 0.0;
    /**
     * Block-write budget before cells of the block start wearing out
     * (0 disables wear-out).  Each cell's individual budget varies
     * around this by +-wearOutSpread.
     */
    std::uint64_t wearOutBlockWrites = 0;
    double wearOutSpread = 0.25;

    /** Spare rows reserved at the top of each unit for row remaps. */
    unsigned spareRowsPerUnit = 8;
    /** Spare units reserved per chip for whole-unit migration. */
    unsigned spareUnitsPerChip = 2;
    /** Scan re-attempts after a read-back verify mismatch. */
    unsigned scanRetries = 3;
    /** Row re-reads when consecutive reads disagree (read disturb). */
    unsigned readRetries = 3;

    /** True when any fault mechanism is active. */
    bool
    injecting() const
    {
        return stuckAt0Rate > 0.0 || stuckAt1Rate > 0.0 ||
            readDisturbRate > 0.0 || wearOutBlockWrites > 0;
    }
};

/** Stateless (but epoch-carrying) fault oracle for one chip. */
class FaultModel
{
  public:
    explicit FaultModel(const FaultParams &params);

    const FaultParams &params() const { return params_; }

    /**
     * Manufacturing stuck-at state of one cell: -1 healthy, else the
     * stuck bit value (0 or 1).
     */
    int stuckState(std::uint64_t array_id, unsigned row,
                   unsigned col) const;

    /**
     * True when the cell is frozen at its stored value: its block has
     * seen more writes than the cell's individual wear budget.
     */
    bool wornOut(std::uint64_t array_id, unsigned row, unsigned col,
                 std::uint64_t block_writes) const;

    /**
     * Transient flip mask for sensing one 64-row word of one column
     * in the given epoch.  Zero when read disturb is disabled.
     */
    std::uint64_t disturbWord(std::uint64_t array_id, unsigned col,
                              unsigned word, std::uint64_t epoch) const;

    /** Current sensing epoch (read concurrently by probe workers). */
    std::uint64_t epoch() const { return epoch_; }

    /** Advance the epoch; must only be called serially. */
    void advanceEpoch() { ++epoch_; }

  private:
    FaultParams params_;
    /** stuckAt0Rate + stuckAt1Rate scaled to a 64-bit threshold. */
    std::uint64_t stuckThreshold_ = 0;
    std::uint64_t stuck0Threshold_ = 0;
    /** Per-word disturb probability scaled to a 64-bit threshold. */
    std::uint64_t disturbThreshold_ = 0;
    std::uint64_t epoch_ = 0;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_FAULTS_HH
