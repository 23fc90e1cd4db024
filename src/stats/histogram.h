/**
 * @file
 * Streaming histogram for latency percentile reporting (Figs 11 and 17).
 *
 * Fixed-width bins over [0, max) with a saturating overflow bin. Memory
 * latencies of benign requests are recorded in nanoseconds; percentile
 * queries interpolate within the containing bin.
 *
 * Storage holds only the prefix of bins up to the highest occupied one:
 * benign latencies occupy a few hundred of the 4096 bins, and every
 * sweep point keeps its histogram in its result record.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/snapshot.h"

namespace bh {

/** Fixed-bin streaming histogram with percentile queries. */
class Histogram
{
  public:
    /**
     * @param bin_width Width of each bin in recorded units.
     * @param num_bins Number of regular bins; values beyond the last bin
     *                 land in a saturating overflow bin.
     */
    explicit Histogram(double bin_width = 1.0, std::size_t num_bins = 4096)
        : binWidth_(bin_width), numBins_(num_bins)
    {
        BH_ASSERT(bin_width > 0.0, "histogram bin width must be positive");
    }

    /**
     * Record one sample. NaN samples carry no orderable value and are
     * dropped (counted in droppedSamples()); every finite value lands in
     * a bin. The quotient is clamped against the overflow-bin index in
     * floating point BEFORE the size_t cast: casting a double beyond the
     * target range (a huge sample, or +inf) is undefined behavior.
     */
    void
    record(double value)
    {
        if (std::isnan(value)) {
            ++dropped_;
            return;
        }
        if (value < 0.0)
            value = 0.0;
        double quotient = value / binWidth_;
        std::size_t idx = quotient >= static_cast<double>(numBins_)
                              ? numBins_
                              : static_cast<std::size_t>(quotient);
        if (idx >= bins.size())
            bins.resize(idx + 1, 0);
        ++bins[idx];
        ++count_;
        sum_ += value;
        if (value > max_)
            max_ = value;
    }

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** NaN samples rejected by record() (diagnostics; not in count()). */
    std::uint64_t droppedSamples() const { return dropped_; }

    /** Mean of recorded samples (0 if empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Largest recorded sample. */
    double max() const { return max_; }

    /**
     * Value below which @p pct percent of samples fall.
     *
     * Edge cases (pinned by test_json_stats):
     *  - empty histogram: 0 for every pct;
     *  - pct <= 0: the lower edge of the first occupied bin (the
     *    histogram's lower bound on the minimum — not a flat 0, which
     *    would misreport distributions that start far from the origin);
     *  - pct >= 100: the exact observed maximum;
     *  - samples in the overflow bin have no upper bin edge to
     *    interpolate toward, so queries landing there report the
     *    observed maximum;
     *  - interpolation never exceeds the observed maximum (a lone
     *    sample's p99 must not extrapolate past the sample itself).
     *
     * @param pct Percentile in [0, 100]; values outside clamp.
     */
    double
    percentile(double pct) const
    {
        if (count_ == 0)
            return 0.0;
        if (pct <= 0.0) {
            for (std::size_t i = 0; i < bins.size(); ++i)
                if (bins[i] != 0)
                    return std::min(static_cast<double>(i) * binWidth_,
                                    max_);
            return 0.0; // Unreachable: count_ > 0 implies an occupied bin.
        }
        if (pct >= 100.0)
            return max_;
        double target = pct / 100.0 * static_cast<double>(count_);
        double running = 0.0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            double next = running + static_cast<double>(bins[i]);
            if (next >= target) {
                if (i == numBins_)
                    return max_; // overflow bin: report observed max
                double frac =
                    bins[i] ? (target - running) / static_cast<double>(bins[i])
                            : 0.0;
                // The bin edge can overshoot the largest sample actually
                // recorded; the observed max caps every answer.
                return std::min(
                    (static_cast<double>(i) + frac) * binWidth_, max_);
            }
            running = next;
        }
        return max_;
    }

    /** Drop all samples. */
    void
    reset()
    {
        bins.clear();
        count_ = 0;
        sum_ = 0.0;
        max_ = 0.0;
        dropped_ = 0;
    }

    // --- raw access (JSON export / exact comparison) -----------------

    /** Bin width in recorded units. */
    double binWidth() const { return binWidth_; }

    /** Number of regular bins; the overflow bin has index numBins(). */
    std::size_t numBins() const { return numBins_; }

    /**
     * Stored bin counts, indexed like the logical bins: the prefix up to
     * the highest occupied bin (empty when nothing was recorded). Every
     * bin past the end holds zero.
     */
    const std::vector<std::uint64_t> &rawBins() const { return bins; }

    /** Sum of all recorded samples. */
    double sum() const { return sum_; }

    /**
     * Rebuild a histogram from exported raw state (the inverse of
     * numBins()/rawBins()/sum()/max()); @p raw_bins holds bins from index
     * 0 and may stop anywhere up to the overflow bin.
     */
    static Histogram
    fromRaw(double bin_width, std::size_t num_bins,
            std::vector<std::uint64_t> raw_bins, double sum, double max)
    {
        BH_ASSERT(raw_bins.size() <= num_bins + 1,
                  "histogram bins beyond the overflow bin");
        Histogram h(bin_width, num_bins);
        h.bins = std::move(raw_bins);
        h.trimBins();
        for (std::uint64_t c : h.bins)
            h.count_ += c;
        h.sum_ = sum;
        h.max_ = max;
        return h;
    }

    /**
     * Save or load the accumulator state (geometry stays
     * constructor-set; a load of another geometry fails). The bins
     * travel densely, all numBins_ + 1 of them, so the encoding does
     * not depend on how much of the prefix is stored.
     */
    void
    transfer(StateIo &io)
    {
        io.tag("hist");
        double width = binWidth_;
        io.d(width);
        io.require(width == binWidth_);
        std::vector<std::uint64_t> dense = bins;
        dense.resize(numBins_ + 1);
        io.u64s(dense);
        if (io.loading()) {
            bins = std::move(dense);
            trimBins();
        }
        io.u64(count_);
        io.d(sum_);
        io.d(max_);
        io.u64(dropped_);
    }

    bool
    operator==(const Histogram &other) const
    {
        return binWidth_ == other.binWidth_ && numBins_ == other.numBins_ &&
               bins == other.bins &&
               count_ == other.count_ && sum_ == other.sum_ &&
               max_ == other.max_ && dropped_ == other.dropped_;
    }

  private:
    /** Drop trailing empty bins so storage ends at the highest occupied
     *  one (what record() maintains, and what operator== relies on). */
    void
    trimBins()
    {
        while (!bins.empty() && bins.back() == 0)
            bins.pop_back();
        bins.shrink_to_fit();
    }

    double binWidth_;
    std::size_t numBins_;
    std::vector<std::uint64_t> bins; ///< Bins [0, highest occupied].
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
    std::uint64_t dropped_ = 0; ///< NaN samples rejected by record().
};

} // namespace bh
