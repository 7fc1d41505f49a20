/**
 * @file
 * RRAM endurance tracking (paper section VII-C): counts writes per
 * memory block, identifies the most frequently written block, and
 * projects the array lifetime under a finite write endurance assuming
 * the hottest block keeps receiving writes at its observed rate.
 */

#ifndef RIME_RIMEHW_ENDURANCE_HH
#define RIME_RIMEHW_ENDURANCE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace rime::rimehw
{

/**
 * Write-wear tracker at block granularity.  Both rank backends record
 * every value store here, so the per-block counts live in a flat
 * vector indexed by block number, grown on demand to the highest
 * block written (backends write only inside their chip's capacity),
 * with a running count of the blocks touched.
 */
class EnduranceTracker
{
  public:
    explicit EnduranceTracker(std::uint64_t block_bytes = 512)
        : blockBytes_(block_bytes)
    {}

    /** Record a write of `bytes` bytes at the given byte offset. */
    void
    recordWrite(std::uint64_t byte_offset, std::uint64_t bytes = 1)
    {
        const std::uint64_t first = byte_offset / blockBytes_;
        const std::uint64_t last =
            (byte_offset + (bytes ? bytes : 1) - 1) / blockBytes_;
        if (last >= writes_.size())
            writes_.resize(last + 1, 0);
        for (std::uint64_t b = first; b <= last; ++b) {
            const std::uint64_t n = ++writes_[b];
            if (n == 1)
                ++touchedBlocks_;
            maxWrites_ = std::max(maxWrites_, n);
            ++totalWrites_;
        }
    }

    std::uint64_t totalWrites() const { return totalWrites_; }
    std::uint64_t maxBlockWrites() const { return maxWrites_; }
    std::uint64_t touchedBlocks() const { return touchedBlocks_; }

    /** Block index covering a byte offset. */
    std::uint64_t blockOf(std::uint64_t byte_offset) const
    { return byte_offset / blockBytes_; }

    /** Writes recorded against the block covering a byte offset. */
    std::uint64_t
    blockWrites(std::uint64_t byte_offset) const
    {
        const std::uint64_t b = blockOf(byte_offset);
        return b < writes_.size() ? writes_[b] : 0;
    }

    /**
     * Projected lifetime in years: the hottest block observed
     * `maxBlockWrites()` writes over `elapsed_seconds` of simulated
     * execution; with a cell endurance of `endurance_writes` the block
     * survives endurance/rate seconds.
     *
     * Returns +infinity when no writes were recorded.
     */
    double
    lifetimeYears(double elapsed_seconds,
                  double endurance_writes = 1e8) const
    {
        if (maxWrites_ == 0 || elapsed_seconds <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double rate =
            static_cast<double>(maxWrites_) / elapsed_seconds;
        const double seconds = endurance_writes / rate;
        return seconds / (365.25 * 24 * 3600);
    }

    void
    reset()
    {
        writes_.clear();
        touchedBlocks_ = 0;
        maxWrites_ = 0;
        totalWrites_ = 0;
    }

  private:
    std::uint64_t blockBytes_;
    /** Writes per block, indexed by block number. */
    std::vector<std::uint64_t> writes_;
    std::uint64_t touchedBlocks_ = 0;
    std::uint64_t maxWrites_ = 0;
    std::uint64_t totalWrites_ = 0;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_ENDURANCE_HH
