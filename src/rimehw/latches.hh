/**
 * @file
 * The select latches of one scan, stored contiguously per chip.
 *
 * In the hardware every row of every mat has its own select latch
 * (Figure 7).  The simulator keeps the latches of the units an
 * operation's range covers in one flat array, in address order:
 * unit i's rows are the words at select(i), followed by unit i + 1's.
 * Next to it sit each unit's survivor count (the index tree's leaf
 * counts) and the address of its slot's MSB column.  A scan step then
 * walks flat arrays instead of chasing a pointer per unit, and the
 * fault-free probe and commit each run as one kernel call over the
 * whole range (KernelTable::searchSignalsRun / commitSearchRun).
 *
 * A faulty chip's scan takes the recorded-match path instead: each
 * unit's column search goes through the array's sense path (read
 * disturb), records the match, and the commit consumes it.
 */

#ifndef RIME_RIMEHW_LATCHES_HH
#define RIME_RIMEHW_LATCHES_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "rimehw/array.hh"
#include "rimehw/kernels.hh"
#include "rimehw/unit.hh"

namespace rime::rimehw
{

/** Select latches and survivor counts of a run of units. */
class ScanLatches
{
  public:
    /**
     * Size the latches for `units` (address order) and record where
     * each unit's columns are stored.  The latches hold no survivors
     * until load().
     */
    void
    bind(const std::vector<ArrayUnit *> &units)
    {
        words_ = units.empty() ? 0 : (units.front()->rows() + 63) / 64;
        select_.assign(units.size() * words_, 0);
        match_.clear();
        survivors_.assign(units.size(), 0);
        columns_.clear();
        for (const ArrayUnit *au : units)
            columns_.push_back(au->scanColumns());
    }

    /**
     * Load every unit's latches for a new extraction (range minus
     * excluded rows); returns the total survivor count.  `units` is
     * the list bind() saw.
     */
    std::uint64_t
    load(const std::vector<ArrayUnit *> &units)
    {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < units.size(); ++i) {
            survivors_[i] = units[i]->loadSelect(selectAt(i));
            total += survivors_[i];
        }
        return total;
    }

    /**
     * Fault-free probe of one scan step: the wired-OR signals over
     * every unit, computed from the stored columns without recording
     * a match (see KernelTable::searchSignalsRun).
     */
    ColumnSearchSignals
    probe(unsigned step_from_msb, bool search_bit) const
    {
        const auto sig = kernels::active().searchSignalsRun(
            select_.data(), columns_.data(), step_from_msb * words_,
            survivors_.data(), survivors_.size(), words_, search_bit);
        return {sig.anyMatch, sig.anyMismatch};
    }

    /**
     * Fault-free commit of one excluding step: recompute each unit's
     * match from its column and apply it; returns the new total
     * survivor count.
     */
    std::uint64_t
    commit(unsigned step_from_msb, bool search_bit)
    {
        return kernels::active().commitSearchRun(
            select_.data(), columns_.data(), step_from_msb * words_,
            survivors_.data(), survivors_.size(), words_, search_bit);
    }

    /**
     * Recorded probe of one scan step (a faulty chip): every unit
     * holding survivors searches its column through the sense path
     * and records the match for commitRecorded().  No early exit: the
     * commit consumes every unit's match.
     */
    ColumnSearchSignals
    probeRecorded(const std::vector<ArrayUnit *> &units,
                  unsigned step_from_msb, bool search_bit)
    {
        match_.resize(select_.size());
        ColumnSearchSignals acc;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (survivors_[i] == 0)
                continue;
            const auto sig = units[i]->searchStep(
                step_from_msb, search_bit, select(i),
                &match_[i * words_]);
            acc.anyMatch = acc.anyMatch || sig.anyMatch;
            acc.anyMismatch = acc.anyMismatch || sig.anyMismatch;
        }
        return acc;
    }

    /**
     * Apply the matches probeRecorded() stored (turning matched rows'
     * select bits off); returns the new total survivor count.
     */
    std::uint64_t
    commitRecorded()
    {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < survivors_.size(); ++i) {
            if (survivors_[i] == 0)
                continue;
            survivors_[i] = kernels::active().andNotCount(
                selectAt(i), &match_[i * words_], words_);
            total += survivors_[i];
        }
        return total;
    }

    /**
     * Priority-encode the winner: the lowest unit holding a
     * survivor, and its lowest selected row.  Returns false when no
     * row is selected.
     */
    bool
    firstSurvivor(std::size_t &pos, unsigned &row) const
    {
        for (std::size_t i = 0; i < survivors_.size(); ++i) {
            if (survivors_[i] == 0)
                continue;
            const std::uint64_t *words = select(i);
            for (unsigned w = 0; w < words_; ++w) {
                if (words[w]) {
                    pos = i;
                    row = w * 64 + static_cast<unsigned>(
                        std::countr_zero(words[w]));
                    return true;
                }
            }
        }
        return false;
    }

    /** Rows still selected in unit i. */
    unsigned survivors(std::size_t i) const { return survivors_[i]; }

    /** Unit i's select latches, one word per 64 rows. */
    const std::uint64_t *
    select(std::size_t i) const
    {
        return &select_[i * words_];
    }

  private:
    std::uint64_t *selectAt(std::size_t i) { return &select_[i * words_]; }

    /** Words per unit (one per 64 rows). */
    unsigned words_ = 0;
    /** Every unit's select latches, back to back. */
    WordVector select_;
    /** Recorded matches of a faulty chip's probe, same layout. */
    WordVector match_;
    /** popcount of each unit's latches; 0 marks a drained unit. */
    std::vector<unsigned> survivors_;
    /** Each unit's MSB column words. */
    std::vector<const std::uint64_t *> columns_;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_LATCHES_HH
