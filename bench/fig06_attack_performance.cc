/**
 * @file
 * Fig 6: weighted speedup of benign applications with an attacker present
 * at N_RH = 1K, per workload-mix class, for each mechanism paired with
 * BreakHammer, normalized to the mechanism without BreakHammer.
 * Expected shape: > 1 everywhere (paper: +84.6% average).
 */
#include <map>

#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig06",
                      "Fig 6: benign performance under attack, N_RH=1K, +BH vs base",
                      "paper Fig 6 (§8.1)")
{
    using namespace bh;
    using namespace bh::benchutil;

    const unsigned n_rh = 1024;

    std::printf("%-12s", "mix");
    for (MitigationType m : pairedMitigations())
        std::printf(" %11s", mitigationName(m));
    std::printf("\n");

    std::map<std::string, std::vector<double>> per_mech_all;
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
                double norm = paired.weightedSpeedup / base.weightedSpeedup;
                vals.push_back(norm);
                per_mech_all[mitigationName(mech)].push_back(norm);
            }
            std::printf(" %11.3f", geomean(vals));
        }
        std::printf("\n");
    }

    std::printf("%-12s", "geomean");
    std::vector<double> overall;
    for (MitigationType mech : pairedMitigations()) {
        double g = geomean(per_mech_all[mitigationName(mech)]);
        overall.push_back(g);
        std::printf(" %11.3f", g);
    }
    std::printf("\n\noverall geomean: %.3f (paper: +84.6%% average "
                "improvement)\n",
                geomean(overall));
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig06")
        .mixes(attackMixes(ctx))
        .nRh(1024)
        .mechanisms(pairedMitigations())
        .breakHammerAxis();
}
