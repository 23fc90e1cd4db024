#include "stats/json_stats.h"

#include <algorithm>

namespace bh {

bool
readHistogram(JsonCursor &cursor, int depth, Histogram *out)
{
    // A generous ceiling on the bin vector a record may ask us to
    // allocate (the simulator's histograms use 4096 bins): a corrupt
    // num_bins or bin index must read as a refusal, not throw bad_alloc.
    constexpr std::uint64_t kMaxBins = 1u << 20;
    enum : unsigned { kWidth, kNumBins, kSum, kMax, kBins, kMembers };
    double width = 0.0, sum = 0.0, max = 0.0;
    std::uint64_t num_bins = 0;
    std::vector<std::uint64_t> raw;
    JsonFields fields(cursor, depth);
    auto read_bins = [&] {
        raw.clear();
        return cursor.array(fields.memberDepth(), [&] {
            std::uint64_t idx = 0, count = 0;
            if (!cursor.consume('[') || !cursor.u64(&idx) ||
                !cursor.consume(',') || !cursor.u64(&count) ||
                !cursor.consume(']') || idx > kMaxBins)
                return false;
            if (idx >= raw.size()) {
                // The highest bin holds the largest sample, so when the
                // members before "bins" give max and the geometry, one
                // allocation fits them all.
                if (raw.empty() && fields.has(kWidth) &&
                    fields.has(kNumBins) && fields.has(kMax) && width > 0.0) {
                    const double top = std::min(
                        max / width,
                        static_cast<double>(std::min(num_bins, kMaxBins)));
                    raw.reserve(top >= 0.0 ? static_cast<std::size_t>(top) + 1
                                           : 1);
                }
                raw.resize(idx + 1, 0);
            }
            raw[idx] = count;
            return true;
        });
    };
    const bool read = cursor.object(depth, [&](std::string_view key) {
        if (key == "bin_width")
            return fields.number(kWidth, &width);
        if (key == "num_bins")
            return fields.u64(kNumBins, &num_bins);
        if (key == "sum")
            return fields.number(kSum, &sum);
        if (key == "max")
            return fields.number(kMax, &max);
        if (key == "bins")
            return fields.read(kBins, read_bins);
        return fields.skip();
    });
    if (!read || !fields.all(kMembers) || width <= 0.0 ||
        num_bins > kMaxBins || raw.size() > num_bins + 1)
        return false;
    *out = Histogram::fromRaw(width, num_bins, std::move(raw), sum, max);
    return true;
}

bool
histogramFromJson(std::string_view text, Histogram *out)
{
    JsonCursor cursor(text);
    Histogram h;
    if (!readHistogram(cursor, 0, &h) || !cursor.atEnd())
        return false;
    *out = std::move(h);
    return true;
}

} // namespace bh
