/**
 * @file
 * Figs 13-16: the no-attacker sweep — BreakHammer must be (nearly) free
 * when all applications are benign.
 *  - Fig 13: per-mix-class normalized WS at N_RH = 64 (paper: +0.7% avg).
 *  - Fig 14: per-mix-class normalized unfairness at N_RH = 1K (+0.9%).
 *  - Fig 15: normalized WS vs N_RH.
 *  - Fig 16: normalized unfairness vs N_RH.
 * All normalized to the mechanism without BreakHammer.
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig13_16",
                      "Figs 13-16: BreakHammer with no attacker present",
                      "paper Figs 13, 14, 15, 16 (§8.2)")
{
    using namespace bh;
    using namespace bh::benchutil;

    // --- Figs 13 & 14: per mix class at fixed N_RH -------------------
    struct FixedPoint
    {
        const char *title;
        unsigned nRh;
        bool unfairness;
    };
    const FixedPoint fixed[] = {
        {"Fig 13: normalized WS, N_RH=64", 64, false},
        {"Fig 14: normalized unfairness, N_RH=1K", 1024, true},
    };

    for (const FixedPoint &fp : fixed) {
        std::printf("-- %s --\n%-12s", fp.title, "mix");
        for (MitigationType m : pairedMitigations())
            std::printf(" %11s", mitigationName(m));
        std::printf("\n");
        std::vector<double> overall;
        for (const std::string &pattern : benignMixPatterns()) {
            std::printf("%-12s", pattern.c_str());
            for (MitigationType mech : pairedMitigations()) {
                std::vector<double> vals;
                for (unsigned i = 0; i < ctx.mixesPerClass; ++i) {
                    MixSpec mix = makeMix(pattern, i);
                    const ExperimentResult &base = point(ctx, mix, mech,
                                                         fp.nRh, false);
                    const ExperimentResult &paired = point(ctx, mix, mech,
                                                           fp.nRh, true);
                    vals.push_back(
                        fp.unfairness
                            ? paired.maxSlowdown / base.maxSlowdown
                            : paired.weightedSpeedup / base.weightedSpeedup);
                }
                double g = geomean(vals);
                overall.push_back(g);
                std::printf(" %11.3f", g);
            }
            std::printf("\n");
        }
        std::printf("geomean overall: %.4f\n\n", geomean(overall));
    }

    // --- Figs 15 & 16: N_RH sweep -------------------------------------
    std::printf("-- Fig 15 (WS) / Fig 16 (unfairness): +BH normalized to "
                "base, vs N_RH --\n");
    std::printf("%-8s", "NRH");
    for (MitigationType m : pairedMitigations())
        std::printf(" %8sWS %8sUF", mitigationName(m), "");
    std::printf("\n");

    for (unsigned n_rh : ctx.nrhSweep()) {
        std::printf("%-8u", n_rh);
        for (MitigationType mech : pairedMitigations()) {
            std::vector<double> ws, uf;
            for (const std::string &pattern : benignMixPatterns()) {
                MixSpec mix = makeMix(pattern, 0);
                const ExperimentResult &base = point(ctx, mix, mech, n_rh,
                                                     false);
                const ExperimentResult &paired = point(ctx, mix, mech,
                                                       n_rh, true);
                ws.push_back(paired.weightedSpeedup / base.weightedSpeedup);
                uf.push_back(paired.maxSlowdown / base.maxSlowdown);
            }
            std::printf(" %10.3f %10.3f", geomean(ws), geomean(uf));
        }
        std::printf("\n");
    }
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    // Two differently-shaped sections: Figs 13/14 take every mix of each
    // class at the two fixed thresholds; Figs 15/16 take the class's
    // first mix across the full N_RH sweep.
    SweepSpec per_class("fig13_16/fixed-nrh");
    per_class.mixClasses(benignMixPatterns(), ctx.mixesPerClass)
        .nRhValues({64, 1024})
        .mechanisms(pairedMitigations())
        .breakHammerAxis();

    SweepSpec nrh_sweep("fig13_16/nrh-sweep");
    nrh_sweep.mixClasses(benignMixPatterns(), 1)
        .nRhValues(ctx.nrhSweep())
        .mechanisms(pairedMitigations())
        .breakHammerAxis();

    return per_class.merge(nrh_sweep);
}
