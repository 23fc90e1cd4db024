/**
 * @file
 * Fig 8: weighted speedup of benign applications vs N_RH with an attacker
 * present, for each mechanism with and without BreakHammer, normalized to
 * a no-mitigation baseline. Expected shape: baselines collapse as N_RH
 * shrinks; +BH variants stay near or above 1 except PARA/AQUA at very low
 * N_RH.
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig08",
                      "Fig 8: benign performance scaling vs N_RH, attacker present",
                      "paper Fig 8 (§8.1)")
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
                double nodef = baseline(ctx, mix).weightedSpeedup;
                base_norm.push_back(
                    point(ctx, mix, mech, n_rh, false).weightedSpeedup /
                    nodef);
                paired_norm.push_back(
                    point(ctx, mix, mech, n_rh, true).weightedSpeedup /
                    nodef);
            }
            std::printf(" %9.3f %9.3f", geomean(base_norm),
                        geomean(paired_norm));
        }
        std::printf("\n");
    }
    std::printf("\n(columns: mechanism without / with BreakHammer, "
                "normalized WS vs no-mitigation)\n");
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig08")
        .mixes(attackMixes(ctx))
        .withBaselines()
        .nRhValues(ctx.nrhSweep())
        .mechanisms(pairedMitigations())
        .breakHammerAxis();
}
