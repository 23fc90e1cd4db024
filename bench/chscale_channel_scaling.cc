/**
 * @file
 * Channel-count scaling study (beyond-paper; ROADMAP "multi-channel
 * DDR5 scale-out"): weighted speedup and max slowdown vs DRAM channel
 * count at 8/16/32 cores, Graphene + BreakHammer, attacker present.
 *
 * Mix patterns rotate H/M/L benign tiers and end in one attacker slot,
 * so contention grows with the core count while the attack share
 * shrinks — the regime where extra channels should buy benign
 * performance back. Channels ride the sweep's variant axis (cfg.channels
 * = 1/2/4), so multi-channel points key separately in a ResultStore
 * while the 1-channel column keeps legacy content addresses.
 *
 * Registered as a study: listable and runnable by name ("bh_bench
 * chscale"), excluded from "bh_bench all" so the canonical full-set
 * JSON export keeps its bytes.
 */
#include "bench/bench_util.h"

namespace {

constexpr unsigned kCoreCounts[] = {8, 16, 32};
constexpr unsigned kChannelCounts[] = {1, 2, 4};

/** "HMLHML...A" pattern of @p cores slots (one attacker, rotated tiers). */
std::string
scalePattern(unsigned cores)
{
    static const char tiers[] = {'H', 'M', 'L'};
    std::string pattern;
    for (unsigned i = 0; i + 1 < cores; ++i)
        pattern += tiers[i % 3];
    pattern += 'A';
    return pattern;
}

/** The study's mixes at one core count (BH_MIXES instances). */
std::vector<bh::MixSpec>
scaleMixes(const bh::bench::Context &ctx, unsigned cores)
{
    std::vector<bh::MixSpec> mixes;
    for (unsigned i = 0; i < ctx.mixesPerClass; ++i)
        mixes.push_back(bh::makeMix(scalePattern(cores), i));
    return mixes;
}

bh::ExperimentConfig
scalePoint(const bh::MixSpec &mix, unsigned channels)
{
    bh::ExperimentConfig cfg =
        bh::benchutil::pointConfig(mix, bh::MitigationType::kGraphene,
                                   1024, true);
    cfg.channels = channels;
    return cfg;
}

} // namespace

BH_BENCH_SWEEP_STUDY("chscale",
                     "Channel scaling: WS / maxSD vs channels, 8-32 cores",
                     "beyond paper (ROADMAP: multi-channel DDR5)")
{
    using namespace bh;
    using namespace bh::benchutil;

    std::printf("%-8s", "cores");
    for (unsigned ch : kChannelCounts)
        std::printf("   WS@%uch maxSD@%uch", ch, ch);
    std::printf("\n");

    for (unsigned cores : kCoreCounts) {
        std::printf("%-8u", cores);
        for (unsigned ch : kChannelCounts) {
            std::vector<double> ws, sd;
            for (const MixSpec &mix : scaleMixes(ctx, cores)) {
                const ExperimentResult &r =
                    ctx.store->get(scalePoint(mix, ch));
                ws.push_back(r.weightedSpeedup);
                sd.push_back(r.maxSlowdown);
            }
            std::printf("  %7.3f %9.3f", geomean(ws), geomean(sd));
        }
        std::printf("\n");
    }
    std::printf("\n(Graphene + BreakHammer, N_RH=1024, one attacker per "
                "mix;\n geomean over BH_MIXES mixes per core count)\n");
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    SweepSpec spec("chscale");
    for (unsigned cores : kCoreCounts)
        spec.mixes(scaleMixes(ctx, cores));
    spec.mechanism(MitigationType::kGraphene).breakHammer(true);
    for (unsigned ch : kChannelCounts)
        spec.variant(std::to_string(ch) + "ch",
                     [ch](ExperimentConfig &cfg) { cfg.channels = ch; });
    return spec;
}
