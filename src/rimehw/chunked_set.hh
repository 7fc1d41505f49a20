/**
 * @file
 * ChunkedSet: FastRime's live-write overlay, a sorted set of
 * (encoded key, value index) entries stored as contiguous chunks.
 *
 * A binary search over the chunk tails picks the chunk, and a second
 * one inside the chunk finds the entry, so an insert or erase moves
 * at most one chunk's worth of entries and allocates only when a
 * chunk splits.  It answers the queries a min or max extraction asks
 * of the overlay: the smallest and second-smallest entry, the largest
 * entry and the top tie run, and the predecessor of an entry.
 */

#ifndef RIME_RIMEHW_CHUNKED_SET_HH
#define RIME_RIMEHW_CHUNKED_SET_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rime::rimehw
{

/** Sorted set of (key, index) entries in chunks of at most kChunk. */
class ChunkedSet
{
  public:
    using Entry = std::pair<std::uint64_t, std::uint64_t>;

    /** Largest chunk; a chunk that outgrows it splits in half. */
    static constexpr std::size_t kChunk = 128;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    void clear();
    /** Insert an entry that is not already present. */
    void insert(const Entry &entry);
    /** Erase an entry; false when it is not present. */
    bool erase(const Entry &entry);
    /** Smallest entry; the set must not be empty. */
    const Entry &front() const { return chunks_.front().front(); }
    /** Largest entry; the set must not be empty. */
    const Entry &back() const { return chunks_.back().back(); }
    /** Second-smallest entry; false when size() < 2. */
    bool second(Entry &out) const;
    /**
     * The top tie run: entries whose key equals back().first.  Sets
     * `first` to the run's smallest entry and returns the run's
     * length.  The set must not be empty.
     */
    std::size_t topRun(Entry &first) const;
    /** Largest entry below `entry`; false when there is none. */
    bool predecessor(const Entry &entry, Entry &out) const;

  private:
    /** Index of the chunk that holds or would hold `entry`. */
    std::size_t chunkFor(const Entry &entry) const;

    std::vector<std::vector<Entry>> chunks_;
    /** chunks_[c].back() for every chunk, for the tail search. */
    std::vector<Entry> tails_;
    std::size_t size_ = 0;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_CHUNKED_SET_HH
