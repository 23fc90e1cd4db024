/**
 * @file
 * Mitigation tuning: compare all eight RowHammer mitigation mechanisms at
 * two RowHammer thresholds, with and without BreakHammer, on one attack
 * mix — the summary view a system architect choosing a mechanism would
 * want.
 *
 * Demonstrates: declaring a whole experiment grid up front, running it
 * in parallel through a ResultStore, and exporting every point as JSON.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/env.h"
#include "sim/result_store.h"

int
main(int argc, char **argv)
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

    MixSpec mix = makeMix("HHMA", 0);
    std::printf("Mechanism comparison on mix %s\n\n", mix.name.c_str());

    const unsigned nrh_points[] = {1024u, 256u};

    // Declare the full (mechanism x N_RH x BH) grid up front...
    std::vector<ExperimentConfig> grid;
    for (unsigned n_rh : nrh_points) {
        for (MitigationType mech : pairedMitigations()) {
            for (bool bh_on : {false, true}) {
                ExperimentConfig cfg;
                cfg.mix = mix;
                cfg.mechanism = mech;
                cfg.nRh = n_rh;
                cfg.breakHammer = bh_on;
                grid.push_back(cfg);
            }
        }
    }

    // ...and run it in parallel. Every result is a pure function of its
    // config, identical no matter how many threads ran.
    ResultStore store(0); // One thread per hardware thread.
    store.setDefaults(defaults);
    store.prefetch(grid);

    std::size_t i = 0;
    for (unsigned n_rh : nrh_points) {
        std::printf("--- N_RH = %u ---\n", n_rh);
        std::printf("%-12s %5s %8s %8s %10s %12s %8s\n", "mechanism", "BH",
                    "WS", "maxSD", "energy(uJ)", "prev.actions",
                    "suspects");
        for (MitigationType mech : pairedMitigations()) {
            for (bool bh_on : {false, true}) {
                const ExperimentResult &r = store.get(grid[i++]);
                std::printf("%-12s %5s %8.3f %8.2f %10.1f %12llu %8llu\n",
                            mitigationName(mech), bh_on ? "on" : "off",
                            r.weightedSpeedup, r.maxSlowdown,
                            r.energyNj * 1e-3,
                            static_cast<unsigned long long>(
                                r.preventiveActions),
                            static_cast<unsigned long long>(
                                r.raw.suspectMarks));
            }
        }
        std::printf("\n");
    }
    std::printf("WS = weighted speedup of the three benign apps; maxSD = "
                "max slowdown (unfairness).\n");

    if (argc > 1) {
        // The export is sorted by experiment key, so its bytes do not
        // depend on the thread count either.
        std::string text = store.toJson().dump(2) + "\n";
        std::FILE *f = std::fopen(argv[1], "w");
        bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) == text.size();
        if (f != nullptr && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "cannot write %s\n", argv[1]);
            return 1;
        }
        std::printf("wrote %s (%zu records)\n", argv[1], store.size());
    }
    return 0;
}
