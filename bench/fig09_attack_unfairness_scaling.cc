/**
 * @file
 * Fig 9: unfairness (max benign slowdown) vs N_RH with an attacker
 * present, mechanism+BH normalized to a no-mitigation baseline.
 * Expected shape: BreakHammer keeps unfairness low (paper: -31.5%
 * average vs the unpaired mechanisms).
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig09",
                      "Fig 9: unfairness scaling vs N_RH, attacker present",
                      "paper Fig 9 (§8.1)")
{
    using namespace bh;
    using namespace bh::benchutil;

    std::vector<MixSpec> mixes = attackMixes(ctx);

    std::printf("%-8s", "NRH");
    for (MitigationType m : pairedMitigations()) {
        std::printf(" %9s", mitigationName(m));
        std::printf(" %9s", "+BH");
    }
    std::printf("\n");

    for (unsigned n_rh : ctx.nrhSweep()) {
        std::printf("%-8u", n_rh);
        for (MitigationType mech : pairedMitigations()) {
            std::vector<double> base_norm, paired_norm;
            for (const MixSpec &mix : mixes) {
                double nodef = baseline(ctx, mix).maxSlowdown;
                base_norm.push_back(
                    point(ctx, mix, mech, n_rh, false).maxSlowdown /
                    nodef);
                paired_norm.push_back(
                    point(ctx, mix, mech, n_rh, true).maxSlowdown /
                    nodef);
            }
            std::printf(" %9.3f %9.3f", geomean(base_norm),
                        geomean(paired_norm));
        }
        std::printf("\n");
    }
    std::printf("\n(columns: mechanism without / with BreakHammer, "
                "normalized max slowdown vs no-mitigation)\n");
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig09")
        .mixes(attackMixes(ctx))
        .withBaselines()
        .nRhValues(ctx.nrhSweep())
        .mechanisms(pairedMitigations())
        .breakHammerAxis();
}
