// Fixture: `stealthFactor` is injected — it reaches neither
// experimentKey() nor resolveExperimentConfig(). The selftest requires
// the key-coverage pass to flag it.
#pragma once

#include <cstdint>

namespace bh {

struct ExperimentConfig {
    unsigned nRh = 1000;
    std::uint64_t seed = 1;
    unsigned stealthFactor = 0;
};

} // namespace bh
