/**
 * @file
 * Ablations of BreakHammer's design choices (paper §4):
 *  1. Score attribution: proportional (paper) vs winner-takes-all.
 *  2. Counter organization: two time-interleaved sets (paper, Fig 4) vs a
 *     single hard-reset set.
 *  3. Throttle point: MSHR quota with free merges (paper, §4.3) vs a
 *     blunt quota that rejects secondary misses too.
 * Each ablation reports benign weighted speedup under attack and the
 * misidentification pressure on benign threads.
 */
#include "bench/bench_util.h"

namespace {

using namespace bh;

constexpr unsigned kNrh = 512;
constexpr MitigationType kMech = MitigationType::kGraphene;

struct Variant
{
    const char *name;
    ScoreAttribution attribution;
    bool singleSet;
    bool blunt;
};

constexpr Variant kVariants[] = {
    {"paper (prop/2set/merge)", ScoreAttribution::kProportional, false,
     false},
    {"winner-takes-all", ScoreAttribution::kWinnerTakesAll, false, false},
    {"single counter set", ScoreAttribution::kProportional, true, false},
    {"blunt throttle", ScoreAttribution::kProportional, false, true},
};

/** The knob overrides shared by the sweep and the render lookups. */
void
applyVariant(ExperimentConfig &cfg, const Variant &v, std::uint64_t insts)
{
    cfg.bh = scaledBreakHammerConfig(insts);
    cfg.bh.attribution = v.attribution;
    cfg.bh.singleCounterSet = v.singleSet;
    cfg.bluntThrottle = v.blunt;
}

ExperimentConfig
variantConfig(const MixSpec &mix, const Variant &v, std::uint64_t insts)
{
    ExperimentConfig cfg;
    cfg.mix = mix;
    cfg.mechanism = kMech;
    cfg.nRh = kNrh;
    cfg.breakHammer = true;
    applyVariant(cfg, v, insts);
    return cfg;
}

} // namespace

BH_BENCH_SWEEP_FIGURE("ablation", "Ablations: BreakHammer design choices",
                      "paper §4")
{
    using namespace bh::benchutil;

    std::printf("%-26s %10s %10s %12s\n", "variant", "WS(attack)",
                "marks", "prev.actions");
    for (const Variant &v : kVariants) {
        std::vector<double> ws;
        std::uint64_t marks = 0, actions = 0;
        for (const std::string &pattern : attackMixPatterns()) {
            const ExperimentResult &r =
                ctx.store->get(
                    variantConfig(makeMix(pattern, 0), v, ctx.instructions));
            ws.push_back(r.weightedSpeedup);
            marks += r.raw.suspectMarks;
            actions += r.preventiveActions;
        }
        std::printf("%-26s %10.3f %10llu %12llu\n", v.name, geomean(ws),
                    static_cast<unsigned long long>(marks),
                    static_cast<unsigned long long>(actions));
    }
    std::printf("\n(Graphene at N_RH=512 across the attack mix classes; "
                "WS is geomean weighted speedup of benign apps)\n");
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &ctx)
{
    const std::uint64_t insts = ctx.instructions;
    SweepSpec spec("ablation");
    spec.mixClasses(attackMixPatterns(), 1)
        .nRh(kNrh)
        .mechanism(kMech)
        .breakHammer(true);
    for (const Variant &v : kVariants)
        spec.variant(v.name, [&v, insts](ExperimentConfig &cfg) {
            applyVariant(cfg, v, insts);
        });
    return spec;
}
