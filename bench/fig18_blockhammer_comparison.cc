/**
 * @file
 * Fig 18: BreakHammer-paired mechanisms vs BlockHammer (the state-of-the-
 * art throttling-based RowHammer defense) vs N_RH, attacker present,
 * normalized to no mitigation. Expected shape: BlockHammer helps at high
 * N_RH but collapses at low N_RH (it starts delaying benign rows), while
 * every +BH pairing stays ahead.
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig18", "Fig 18: BreakHammer pairings vs BlockHammer",
                      "paper Fig 18 (§8.3)")
{
    using namespace bh;
    using namespace bh::benchutil;

    std::vector<MixSpec> mixes = attackMixes(ctx);

    std::printf("%-8s", "NRH");
    for (MitigationType m : pairedMitigations())
        std::printf(" %10s+BH", mitigationName(m));
    std::printf(" %12s\n", "BlockHammer");

    for (unsigned n_rh : ctx.nrhSweep()) {
        std::printf("%-8u", n_rh);
        for (MitigationType mech : pairedMitigations()) {
            std::vector<double> vals;
            for (const MixSpec &mix : mixes) {
                double nodef = baseline(ctx, mix).weightedSpeedup;
                vals.push_back(
                    point(ctx, mix, mech, n_rh, true).weightedSpeedup /
                    nodef);
            }
            std::printf(" %13.3f", geomean(vals));
        }
        std::vector<double> bhm;
        for (const MixSpec &mix : mixes) {
            double nodef = baseline(ctx, mix).weightedSpeedup;
            bhm.push_back(
                point(ctx, mix, MitigationType::kBlockHammer, n_rh, false)
                    .weightedSpeedup /
                nodef);
        }
        std::printf(" %12.3f\n", geomean(bhm));
    }
    std::printf("\n(normalized WS of benign apps vs no mitigation; paper: "
                "BlockHammer falls from +78.6%% to -98%% as N_RH drops)\n");
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    SweepSpec paired("fig18/paired");
    paired.mixes(attackMixes(ctx))
        .withBaselines()
        .nRhValues(ctx.nrhSweep())
        .mechanisms(pairedMitigations())
        .breakHammer(true);

    SweepSpec blockhammer("fig18/blockhammer");
    blockhammer.mixes(attackMixes(ctx))
        .nRhValues(ctx.nrhSweep())
        .mechanism(MitigationType::kBlockHammer);

    return paired.merge(blockhammer);
}
