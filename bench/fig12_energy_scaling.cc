/**
 * @file
 * Fig 12: DRAM energy vs N_RH with an attacker present, mechanism and
 * mechanism+BH normalized to a no-mitigation baseline. Expected shape:
 * baseline energy grows steeply as N_RH shrinks (AQUA and RFM worst);
 * BreakHammer reduces it substantially (paper: -55.4% average).
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig12",
                      "Fig 12: DRAM energy scaling vs N_RH, attacker present",
                      "paper Fig 12 (§8.1)")
{
    using namespace bh;
    using namespace bh::benchutil;

    std::vector<MixSpec> mixes = attackMixes(ctx);

    std::printf("%-8s", "NRH");
    for (MitigationType m : pairedMitigations())
        std::printf(" %9s %9s", mitigationName(m), "+BH");
    std::printf("\n");

    std::vector<double> savings;
    for (unsigned n_rh : ctx.nrhSweep()) {
        std::printf("%-8u", n_rh);
        for (MitigationType mech : pairedMitigations()) {
            std::vector<double> base_norm, paired_norm;
            for (const MixSpec &mix : mixes) {
                double nodef = baseline(ctx, mix).energyNj;
                double b =
                    point(ctx, mix, mech, n_rh, false).energyNj / nodef;
                double p =
                    point(ctx, mix, mech, n_rh, true).energyNj / nodef;
                base_norm.push_back(b);
                paired_norm.push_back(p);
                savings.push_back(p / b);
            }
            std::printf(" %9.3f %9.3f", geomean(base_norm),
                        geomean(paired_norm));
        }
        std::printf("\n");
    }
    std::printf("\n(normalized DRAM energy vs no-mitigation; paper: -55.4%%"
                " average with BH)\nmeasured mean ratio +BH/base: %.3f\n",
                mean(savings));
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig12")
        .mixes(attackMixes(ctx))
        .withBaselines()
        .nRhValues(ctx.nrhSweep())
        .mechanisms(pairedMitigations())
        .breakHammerAxis();
}
