/**
 * @file
 * JSON conversions for the stats primitives.
 *
 * Histograms export their full raw state so a parsed histogram answers
 * every query (count, mean, max, percentiles) identically to the one that
 * was dumped; bins are run-length compressed as [index, count] pairs since
 * latency histograms are sparse.
 */
#pragma once

#include "stats/histogram.h"
#include "stats/json.h"

namespace bh {

/** Serialize @p h, including enough raw state for an exact round trip. */
inline JsonValue
histogramToJson(const Histogram &h)
{
    JsonValue out = JsonValue::object();
    out.set("bin_width", h.binWidth());
    out.set("num_bins", static_cast<std::uint64_t>(h.numBins()));
    out.set("sum", h.sum());
    out.set("max", h.max());
    JsonValue bins = JsonValue::array();
    const std::vector<std::uint64_t> &raw = h.rawBins();
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == 0)
            continue;
        JsonValue pair = JsonValue::array();
        pair.push(static_cast<std::uint64_t>(i));
        pair.push(raw[i]);
        bins.push(std::move(pair));
    }
    out.set("bins", std::move(bins));
    return out;
}

/**
 * Rebuild a histogram dumped by histogramToJson(). Storage is sized to
 * the highest listed bin, not to num_bins.
 */
inline Histogram
histogramFromJson(const JsonValue &v)
{
    std::size_t num_bins = v.get("num_bins").asU64();
    const JsonValue &bins = v.get("bins");
    std::vector<std::uint64_t> raw;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        const JsonValue &pair = bins.at(i);
        std::size_t idx = pair.at(0).asU64();
        BH_ASSERT(idx <= num_bins, "histogram JSON: bin out of range");
        if (idx >= raw.size())
            raw.resize(idx + 1, 0);
        raw[idx] = pair.at(1).asU64();
    }
    return Histogram::fromRaw(v.get("bin_width").asDouble(), num_bins,
                              std::move(raw), v.get("sum").asDouble(),
                              v.get("max").asDouble());
}

} // namespace bh
