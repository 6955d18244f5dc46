/**
 * @file
 * Statistic value types.  Components own Counter / Distribution
 * objects and register them with their core's obs::StatsRegistry
 * (obs/stats_registry.hh), which names and dumps them.
 */

#ifndef FLYWHEEL_COMMON_STATS_HH
#define FLYWHEEL_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace flywheel {

/** Simple monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }
    /** Overwrite the count (snapshot restore only). */
    void set(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket histogram for distributions such as trace lengths or
 * issue-unit widths.  Values beyond the last bucket are accumulated
 * in an overflow bin.
 */
class Distribution
{
  public:
    Distribution() : Distribution(16, 1) {}

    /** @param buckets number of bins, @param width value range per bin. */
    Distribution(unsigned buckets, unsigned width)
        : width_(width ? width : 1), bins_(buckets, 0)
    {}

    void
    sample(std::uint64_t v)
    {
        std::uint64_t idx = v / width_;
        if (idx >= bins_.size())
            ++overflow_;
        else
            ++bins_[idx];
        sum_ += v;
        ++count_;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t> &bins() const { return bins_; }
    unsigned bucketWidth() const { return width_; }

  private:
    unsigned width_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t overflow_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace flywheel

#endif // FLYWHEEL_COMMON_STATS_HH
