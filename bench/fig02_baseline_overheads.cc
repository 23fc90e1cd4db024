/**
 * @file
 * Fig 2: system performance of RowHammer mitigation mechanisms (without
 * BreakHammer) on benign workloads as N_RH decreases, normalized to a
 * no-mitigation baseline. Expected shape: all mechanisms degrade as N_RH
 * shrinks; Hydra degrades least, PARA and AQUA most.
 */
#include "bench/bench_util.h"

namespace {

const std::vector<bh::MitigationType> &
mechanisms()
{
    static const std::vector<bh::MitigationType> mechs = {
        bh::MitigationType::kHydra, bh::MitigationType::kRfm,
        bh::MitigationType::kPara, bh::MitigationType::kAqua};
    return mechs;
}

} // namespace

BH_BENCH_SWEEP_FIGURE("fig02", "Fig 2: baseline mitigation overheads (benign)",
                      "paper Fig 2 (§3)")
{
    using namespace bh;
    using namespace bh::benchutil;

    std::vector<MixSpec> mixes = benignMixes(ctx);

    std::printf("%-8s", "NRH");
    for (MitigationType m : mechanisms())
        std::printf(" %12s", mitigationName(m));
    std::printf("   (normalized weighted speedup, geomean over %zu mixes)\n",
                mixes.size());

    for (unsigned n_rh : ctx.nrhSweep()) {
        std::printf("%-8u", n_rh);
        for (MitigationType mech : mechanisms()) {
            std::vector<double> normalized;
            for (const MixSpec &mix : mixes) {
                double base = baseline(ctx, mix).weightedSpeedup;
                const ExperimentResult &r = point(ctx, mix, mech, n_rh,
                                                  false);
                normalized.push_back(r.weightedSpeedup / base);
            }
            std::printf(" %12.3f", geomean(normalized));
        }
        std::printf("\n");
    }
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig02")
        .mixes(benignMixes(ctx))
        .withBaselines()
        .nRhValues(ctx.nrhSweep())
        .mechanisms(mechanisms());
}
