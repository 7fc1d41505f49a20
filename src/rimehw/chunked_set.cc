#include "chunked_set.hh"

#include <algorithm>
#include <iterator>

namespace rime::rimehw
{

void
ChunkedSet::clear()
{
    chunks_.clear();
    tails_.clear();
    size_ = 0;
}

std::size_t
ChunkedSet::chunkFor(const Entry &entry) const
{
    return static_cast<std::size_t>(
        std::lower_bound(tails_.begin(), tails_.end(), entry) -
        tails_.begin());
}

void
ChunkedSet::insert(const Entry &entry)
{
    if (chunks_.empty()) {
        chunks_.emplace_back().reserve(kChunk + 1);
        chunks_.back().push_back(entry);
        tails_.push_back(entry);
        size_ = 1;
        return;
    }
    // Past every tail: the entry extends the last chunk.
    const std::size_t c = std::min(chunkFor(entry), chunks_.size() - 1);
    std::vector<Entry> &chunk = chunks_[c];
    chunk.insert(std::lower_bound(chunk.begin(), chunk.end(), entry),
                 entry);
    tails_[c] = chunk.back();
    ++size_;
    if (chunk.size() <= kChunk)
        return;
    // Split the full chunk in half.
    std::vector<Entry> upper;
    upper.reserve(kChunk + 1);
    upper.assign(chunk.begin() + kChunk / 2, chunk.end());
    chunk.resize(kChunk / 2);
    tails_[c] = chunk.back();
    tails_.insert(tails_.begin() + static_cast<std::ptrdiff_t>(c + 1),
                  upper.back());
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c + 1),
                   std::move(upper));
}

bool
ChunkedSet::erase(const Entry &entry)
{
    const std::size_t c = chunkFor(entry);
    if (c == chunks_.size())
        return false;
    std::vector<Entry> &chunk = chunks_[c];
    const auto pos = std::lower_bound(chunk.begin(), chunk.end(), entry);
    if (pos == chunk.end() || *pos != entry)
        return false;
    chunk.erase(pos);
    --size_;
    // Fold a chunk that fell below a quarter full into a neighbour
    // with room, so erasures cannot leave a long run of tiny chunks.
    std::size_t into = c;
    std::size_t from = chunks_.size();
    if (chunk.size() < kChunk / 4) {
        if (c + 1 < chunks_.size() &&
            chunk.size() + chunks_[c + 1].size() <= kChunk) {
            from = c + 1;
        } else if (c > 0 &&
                   chunks_[c - 1].size() + chunk.size() <= kChunk) {
            into = c - 1;
            from = c;
        }
    }
    if (from < chunks_.size()) {
        std::vector<Entry> &dst = chunks_[into];
        dst.insert(dst.end(), chunks_[from].begin(), chunks_[from].end());
        chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(from));
        tails_.erase(tails_.begin() + static_cast<std::ptrdiff_t>(from));
    }
    if (chunks_[into].empty()) {
        chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(into));
        tails_.erase(tails_.begin() + static_cast<std::ptrdiff_t>(into));
    } else {
        tails_[into] = chunks_[into].back();
    }
    return true;
}

bool
ChunkedSet::second(Entry &out) const
{
    if (size_ < 2)
        return false;
    const std::vector<Entry> &head = chunks_.front();
    out = head.size() > 1 ? head[1] : chunks_[1].front();
    return true;
}

std::size_t
ChunkedSet::topRun(Entry &first) const
{
    const std::uint64_t key = back().first;
    std::size_t run = 0;
    for (std::size_t c = chunks_.size(); c-- > 0;) {
        const std::vector<Entry> &chunk = chunks_[c];
        const auto pos = std::lower_bound(chunk.begin(), chunk.end(),
                                          Entry{key, 0});
        run += static_cast<std::size_t>(chunk.end() - pos);
        if (pos != chunk.end())
            first = *pos;
        if (pos != chunk.begin())
            break;
    }
    return run;
}

bool
ChunkedSet::predecessor(const Entry &entry, Entry &out) const
{
    const std::size_t c = chunkFor(entry);
    if (c < chunks_.size()) {
        const std::vector<Entry> &chunk = chunks_[c];
        const auto pos =
            std::lower_bound(chunk.begin(), chunk.end(), entry);
        if (pos != chunk.begin()) {
            out = *std::prev(pos);
            return true;
        }
    }
    // Every entry of chunk c is >= entry: the answer is the tail of
    // the chunk before it.
    if (c == 0)
        return false;
    out = tails_[c - 1];
    return true;
}

} // namespace rime::rimehw
