#include "stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>

namespace rime
{

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(),
                  suffix) == 0;
}

} // namespace

bool
isWallClockStat(const std::string &stat)
{
    return endsWith(stat, "WallNs");
}

bool
isHostDependentStat(const std::string &stat)
{
    return isWallClockStat(stat) || endsWith(stat, "Host");
}

int
StatHistogram::bucketOf(double value)
{
    if (!std::isfinite(value))
        return kNonFiniteBucket;
    if (!(value >= 1.0))
        return 0;
    // A value >= 1 is normal with a clear sign bit, so its biased
    // exponent field is exactly ilogb(value) + 1023: bucket boundaries
    // are deterministic (no log() rounding at powers of two).
    return static_cast<int>(std::bit_cast<std::uint64_t>(value) >> 52) -
        1022;
}

std::pair<double, double>
StatHistogram::bucketBounds(int b)
{
    if (b <= 0)
        return {0.0, 1.0};
    return {std::ldexp(1.0, b - 1), std::ldexp(1.0, b)};
}

void
StatHistogram::merge(const StatHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size());
    for (std::size_t b = 0; b < other.buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
}

void
StatHistogram::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    // Keeps the capacity: re-recording after a reset allocates nothing.
    buckets_.clear();
}

std::map<int, std::uint64_t>
StatHistogram::buckets() const
{
    std::map<int, std::uint64_t> occupied;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (buckets_[b] != 0)
            occupied.emplace(static_cast<int>(b), buckets_[b]);
    }
    return occupied;
}

void
StatGroup::dump(std::ostream &os) const
{
    // setprecision would otherwise leak into the caller's stream.
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << std::setprecision(12);
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    for (const auto &kv : values_)
        os << prefix << kv.first << " " << kv.second << "\n";
    for (const auto &kv : hists_) {
        const std::string hp = prefix + kv.first;
        const StatHistogram &h = kv.second;
        os << hp << ".count " << h.count() << "\n";
        if (h.count() == 0)
            continue;
        os << hp << ".mean " << h.mean() << "\n"
           << hp << ".min " << h.min() << "\n"
           << hp << ".max " << h.max() << "\n";
        for (const auto &bucket : h.buckets()) {
            const auto [lo, hi] = StatHistogram::bucketBounds(
                bucket.first);
            os << hp << ".bucket[" << lo << "," << hi << ") "
               << bucket.second << "\n";
        }
    }
    os.flags(flags);
    os.precision(precision);
}

} // namespace rime
