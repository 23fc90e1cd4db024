/**
 * @file
 * Fig 10: number of RowHammer-preventive actions performed vs N_RH, with
 * and without BreakHammer (REGA excluded: its preventive refreshes run in
 * parallel with activations, fn 10 of the paper). Expected shape: counts
 * grow as N_RH shrinks; BreakHammer reduces them (paper: -71.6% average).
 */
#include "bench/bench_util.h"

namespace {

std::vector<bh::MitigationType>
mechanisms()
{
    std::vector<bh::MitigationType> mechs;
    for (bh::MitigationType m : bh::pairedMitigations())
        if (m != bh::MitigationType::kRega)
            mechs.push_back(m);
    return mechs;
}

} // namespace

BH_BENCH_SWEEP_FIGURE("fig10",
                      "Fig 10: preventive actions vs N_RH, attacker present",
                      "paper Fig 10 (§8.1)")
{
    using namespace bh;
    using namespace bh::benchutil;

    std::vector<MixSpec> mixes = attackMixes(ctx);

    std::printf("%-8s", "NRH");
    for (MitigationType m : mechanisms())
        std::printf(" %10s %10s", mitigationName(m), "+BH");
    std::printf("\n");

    std::vector<double> reductions;
    for (unsigned n_rh : ctx.nrhSweep()) {
        std::printf("%-8u", n_rh);
        for (MitigationType mech : mechanisms()) {
            double base_sum = 0, paired_sum = 0;
            for (const MixSpec &mix : mixes) {
                base_sum += static_cast<double>(
                    point(ctx, mix, mech, n_rh, false).preventiveActions);
                paired_sum += static_cast<double>(
                    point(ctx, mix, mech, n_rh, true).preventiveActions);
            }
            double per_mix = 1.0 / static_cast<double>(mixes.size());
            std::printf(" %10.0f %10.0f", base_sum * per_mix,
                        paired_sum * per_mix);
            if (base_sum > 0)
                reductions.push_back(paired_sum / base_sum);
        }
        std::printf("\n");
    }
    std::printf("\n(mean preventive actions per mix; paper reports -71.6%% "
                "average with BH)\n");
    std::printf("measured mean ratio +BH/base: %.3f\n", mean(reductions));
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    using namespace bh::benchutil;
    return SweepSpec("fig10")
        .mixes(attackMixes(ctx))
        .nRhValues(ctx.nrhSweep())
        .mechanisms(mechanisms())
        .breakHammerAxis();
}
