/**
 * @file
 * JSON conversions for the stats primitives.
 *
 * Histograms export their full raw state so a parsed histogram answers
 * every query (count, mean, max, percentiles) identically to the one that
 * was dumped; bins are run-length compressed as [index, count] pairs since
 * latency histograms are sparse. They are read back from the bytes with a
 * JsonCursor, with no JsonValue tree.
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
 * Read the histogramToJson() object at @p cursor, nested in @p depth
 * arrays/objects, into @p out. Every member histogramToJson() writes must
 * be there with its kind: bin_width > 0, num_bins a count of at most
 * 2^20, and each bin an [index, count] pair of counts with index <=
 * num_bins. Other members are checked and skipped; with duplicate keys
 * the last one decides. Storage is sized to the highest listed bin, not
 * to num_bins.
 * @return false on malformed or refused input; @p out is then untouched.
 */
bool readHistogram(JsonCursor &cursor, int depth, Histogram *out);

/** Rebuild a histogram from histogramToJson().dump() bytes: the whole
 *  of @p text must be one object readHistogram() accepts. */
bool histogramFromJson(std::string_view text, Histogram *out);

} // namespace bh
