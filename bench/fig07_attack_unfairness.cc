/**
 * @file
 * Fig 7: unfairness (maximum slowdown of a benign application) with an
 * attacker present at N_RH = 1K, per mix class, mechanism+BH normalized to
 * the mechanism alone. Expected shape: < 1 (paper: -45.8% average),
 * shrinking least for HHH mixes.
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig07",
                      "Fig 7: unfairness under attack, N_RH=1K, +BH vs base",
                      "paper Fig 7 (§8.1)")
{
    using namespace bh;
    using namespace bh::benchutil;

    const unsigned n_rh = 1024;

    std::printf("%-12s", "mix");
    for (MitigationType m : pairedMitigations())
        std::printf(" %11s", mitigationName(m));
    std::printf("\n");

    std::vector<double> overall;
    for (const std::string &pattern : attackMixPatterns()) {
        std::printf("%-12s", pattern.c_str());
        for (MitigationType mech : pairedMitigations()) {
            std::vector<double> vals;
            for (unsigned i = 0; i < ctx.mixesPerClass; ++i) {
                MixSpec mix = makeMix(pattern, i);
                const ExperimentResult &base = point(ctx, mix, mech, n_rh,
                                                     false);
                const ExperimentResult &paired = point(ctx, mix, mech,
                                                       n_rh, true);
                vals.push_back(paired.maxSlowdown / base.maxSlowdown);
            }
            double g = geomean(vals);
            overall.push_back(g);
            std::printf(" %11.3f", g);
        }
        std::printf("\n");
    }
    std::printf("\noverall geomean: %.3f (paper: -45.8%% average)\n",
                geomean(overall));
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig07")
        .mixes(attackMixes(ctx))
        .nRh(1024)
        .mechanisms(pairedMitigations())
        .breakHammerAxis();
}
