/**
 * @file
 * How many heap allocations decoding one stored experiment record costs.
 * This translation unit replaces the global operator new with one that
 * counts while a decode runs, so the count is exact: the decoder reads
 * the record's bytes straight into the result, and only the result's own
 * storage may come from the heap.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/experiment.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace bh {
namespace {

TEST(RecordDecodeTest, CanonicalRecordAllocatesOnlyItsOwnStorage)
{
    // A four-core BreakHammer record whose latency histogram fills ~300
    // bins, as the figures' records do.
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 0);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 8000;
    cfg = resolveExperimentConfig(cfg);
    const std::string text =
        experimentResultToJson(cfg, runExperiment(cfg)).dump();

    ExperimentResult out;
    allocations = 0;
    counting = true;
    const bool decoded = experimentResultFromJson(text, &out);
    counting = false;
    ASSERT_TRUE(decoded);

    const RunResult &raw = out.raw;
    const std::vector<std::uint64_t> &bins =
        raw.benignReadLatencyNs.rawBins();
    std::size_t occupied = 0;
    for (std::uint64_t count : bins)
        occupied += count != 0;
    ASSERT_EQ(raw.cores.size(), 4u);
    ASSERT_GE(occupied, 250u);

    // One allocation of its final size per vector the result owns, and
    // one per core name too long for a short string; nothing else.
    std::size_t bound = !raw.cores.empty() + !raw.bhScores.empty() +
                        !raw.bhQuotas.empty() +
                        !raw.demandActsPerThread.empty() + !bins.empty();
    for (const CoreResult &core : raw.cores)
        bound += core.name.size() > std::string().capacity();
    EXPECT_EQ(bound, 4u);
    EXPECT_LE(allocations.load(), bound);
    EXPECT_EQ(bins.capacity(), bins.size());
    EXPECT_EQ(raw.cores.capacity(), raw.cores.size());
}

} // namespace
} // namespace bh
