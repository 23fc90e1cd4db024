/**
 * @file
 * Fig 19: sensitivity to TH_threat. The paper sweeps TH_threat in
 * {32..4096} (per 64 ms window) at N_RH in {4096, 512, 64}, with and
 * without an attacker, reporting box statistics of weighted speedup
 * normalized to the TH_threat = 4096 configuration. The sweep here uses
 * window-scaled TH_threat multiples (1x, 16x, 128x of the scaled base —
 * the same ratios as the paper's 32/512/4096).
 */
#include <map>

#include "bench/bench_util.h"

namespace {

constexpr unsigned kNrhPoints[] = {4096, 512, 64};
constexpr double kMultipliers[] = {1.0, 16.0, 128.0};

/** The TH_threat override shared by the sweep and the render lookups. */
void
applyThreat(bh::ExperimentConfig &cfg, const bh::BreakHammerConfig &scaled,
            double multiplier)
{
    cfg.bh = scaled;
    cfg.bh.thThreat = scaled.thThreat * multiplier;
}

bh::ExperimentConfig
threatConfig(const bh::MixSpec &mix, unsigned n_rh,
             const bh::BreakHammerConfig &scaled, double multiplier)
{
    using namespace bh;
    ExperimentConfig cfg;
    cfg.mix = mix;
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = n_rh;
    cfg.breakHammer = true;
    applyThreat(cfg, scaled, multiplier);
    return cfg;
}

} // namespace

BH_BENCH_SWEEP_FIGURE("fig19", "Fig 19: sensitivity to TH_threat",
                      "paper Fig 19 (§8.4)")
{
    using namespace bh;
    using namespace bh::benchutil;

    BreakHammerConfig scaled = scaledBreakHammerConfig(ctx.instructions);

    for (bool attack : {true, false}) {
        std::printf("-- %s --\n",
                    attack ? "RowHammer attack present"
                           : "no RowHammer attack");
        std::printf("%-10s", "THthreat");
        for (unsigned n_rh : kNrhPoints)
            std::printf("  NRH=%-5u min/med/max      ", n_rh);
        std::printf("\n");

        // Reference: the largest TH_threat (effectively disabled).
        std::map<unsigned, std::vector<double>> reference;
        for (unsigned n_rh : kNrhPoints) {
            for (const std::string &pattern :
                 attack ? attackMixPatterns() : benignMixPatterns()) {
                reference[n_rh].push_back(
                    ctx.store
                        ->get(threatConfig(makeMix(pattern, 0), n_rh,
                                           scaled, kMultipliers[2]))
                        .weightedSpeedup);
            }
        }

        for (double mult : kMultipliers) {
            std::printf("%-10.0f", scaled.thThreat * mult);
            for (unsigned n_rh : kNrhPoints) {
                std::vector<double> normalized;
                unsigned idx = 0;
                for (const std::string &pattern :
                     attack ? attackMixPatterns() : benignMixPatterns()) {
                    normalized.push_back(
                        ctx.store
                            ->get(threatConfig(makeMix(pattern, 0), n_rh,
                                               scaled, mult))
                            .weightedSpeedup /
                        reference[n_rh][idx++]);
                }
                BoxStats box = boxStats(normalized);
                std::printf("  %5.2f/%5.2f/%5.2f      ", box.min,
                            box.median, box.max);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf("(WS normalized to the largest TH_threat; paper: lower "
                "TH_threat helps under attack, costs little without)\n");
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    using namespace bh;
    BreakHammerConfig scaled = scaledBreakHammerConfig(ctx.instructions);

    SweepSpec spec("fig19");
    spec.mixClasses(attackMixPatterns(), 1)
        .mixClasses(benignMixPatterns(), 1)
        .nRhValues({kNrhPoints[0], kNrhPoints[1], kNrhPoints[2]})
        .mechanism(MitigationType::kGraphene)
        .breakHammer(true);
    for (double mult : kMultipliers) {
        char label[32];
        std::snprintf(label, sizeof(label), "thr-x%g", mult);
        spec.variant(label, [scaled, mult](ExperimentConfig &cfg) {
            applyThreat(cfg, scaled, mult);
        });
    }
    return spec;
}
