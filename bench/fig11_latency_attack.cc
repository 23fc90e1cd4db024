/**
 * @file
 * Fig 11: memory latency percentiles of benign applications at N_RH = 64
 * with an attacker present: no defense vs mechanism vs mechanism+BH.
 * Expected shape: +BH lowers latency at every percentile, sometimes below
 * the no-defense baseline; AQUA's scale dwarfs the others.
 */
#include "bench/bench_util.h"

BH_BENCH_SWEEP_FIGURE("fig11",
                      "Fig 11: benign memory latency percentiles, N_RH=64, attacker",
                      "paper Fig 11 (§8.1)")
{
    using namespace bh;
    using namespace bh::benchutil;

    const unsigned n_rh = 64;
    MixSpec mix = makeMix("HHMA", 0);
    const double pcts[] = {50, 90, 99, 99.9};

    const ExperimentResult &nodef = baseline(ctx, mix);

    std::printf("%-12s %8s %8s %8s %8s   (latency ns at P50/P90/P99/P99.9,"
                " mix %s)\n",
                "config", "P50", "P90", "P99", "P99.9", mix.name.c_str());
    auto print_row = [&](const std::string &name, const Histogram &h) {
        std::printf("%-12s", name.c_str());
        for (double p : pcts)
            std::printf(" %8.0f", h.percentile(p));
        std::printf("\n");
    };
    print_row("NoDefense", nodef.raw.benignReadLatencyNs);

    for (MitigationType mech : pairedMitigations()) {
        const ExperimentResult &base = point(ctx, mix, mech, n_rh, false);
        const ExperimentResult &paired = point(ctx, mix, mech, n_rh, true);
        print_row(mitigationName(mech), base.raw.benignReadLatencyNs);
        print_row(std::string(mitigationName(mech)) + "+BH",
                  paired.raw.benignReadLatencyNs);
    }
}

static bh::SweepSpec
bhBenchSweep(const bh::bench::Context &)
{
    using namespace bh;
    return SweepSpec("fig11")
        .mix(makeMix("HHMA", 0))
        .withBaselines()
        .nRh(64)
        .mechanisms(pairedMitigations())
        .breakHammerAxis();
}
