/**
 * @file
 * Quickstart: build a four-core system under RowHammer attack, pair the
 * Graphene mitigation with BreakHammer, and compare against the unpaired
 * baseline.
 *
 * Demonstrates the core public API: mixes, experiment configs, the
 * ResultStore (its prefetch runs both points concurrently), and the
 * metrics the paper reports (weighted speedup of benign applications,
 * unfairness, preventive-action counts).
 */
#include <cstdio>
#include <cstdlib>

#include "common/env.h"
#include "sim/result_store.h"

int
main()
{
    using namespace bh;

    // BH_INSTS (instructions per benign core) sets the store's default
    // horizon; unset keeps the library default.
    ConfigDefaults defaults;
    const char *insts = std::getenv("BH_INSTS");
    if (insts != nullptr && *insts != '\0' &&
        !parsePositiveU64(insts, &defaults.instructions)) {
        std::fprintf(stderr, "error: BH_INSTS wants a positive integer\n");
        return 2;
    }

    // An HHMA mix: three benign apps (two high-, one medium-intensity)
    // plus one core mounting a many-sided RowHammer access pattern.
    MixSpec mix = makeMix("HHMA", 0);
    std::printf("mix %s:", mix.name.c_str());
    for (const auto &slot : mix.slots)
        std::printf(" %s", slot.kind == WorkloadSlot::Kind::kAttacker
                               ? "ATTACKER"
                               : slot.appName.c_str());
    std::printf("\n\n");

    const unsigned n_rh = 1024;

    ExperimentConfig base;
    base.mix = mix;
    base.mechanism = MitigationType::kGraphene;
    base.nRh = n_rh;
    base.breakHammer = false;

    ExperimentConfig paired = base;
    paired.breakHammer = true;

    // Both points are independent simulations; the store runs them on
    // parallel workers, then serves each by its config.
    ResultStore store(2);
    store.setDefaults(defaults);
    store.prefetch({base, paired});
    const ExperimentResult &baseline = store.get(base);
    const ExperimentResult &with_bh = store.get(paired);

    std::printf("%-22s %12s %12s\n", "metric", "Graphene", "Graphene+BH");
    std::printf("%-22s %12.3f %12.3f\n", "weighted speedup (benign)",
                baseline.weightedSpeedup, with_bh.weightedSpeedup);
    std::printf("%-22s %12.3f %12.3f\n", "max slowdown (benign)",
                baseline.maxSlowdown, with_bh.maxSlowdown);
    std::printf("%-22s %12llu %12llu\n", "preventive actions",
                static_cast<unsigned long long>(baseline.preventiveActions),
                static_cast<unsigned long long>(with_bh.preventiveActions));
    std::printf("%-22s %12.2f %12.2f\n", "DRAM energy (uJ)",
                baseline.energyNj * 1e-3, with_bh.energyNj * 1e-3);
    std::printf("%-22s %12llu %12llu\n", "suspect marks",
                static_cast<unsigned long long>(baseline.raw.suspectMarks),
                static_cast<unsigned long long>(with_bh.raw.suspectMarks));

    double speedup =
        with_bh.weightedSpeedup / baseline.weightedSpeedup - 1.0;
    std::printf("\nBreakHammer improves benign weighted speedup by %.1f%%\n",
                speedup * 100.0);
    return 0;
}
