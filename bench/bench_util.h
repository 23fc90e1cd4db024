/**
 * @file
 * Shared helpers for the per-figure benchmark drivers.
 *
 * Every bench prints the same rows/series the paper's figure reports,
 * at the scale of its Context (bh_bench's BH_INSTS, BH_MIXES and
 * BH_FULL). Results are raw text tables so diffs between runs stay
 * reviewable.
 *
 * Figures declare their grid as a SweepSpec (sim/sweep.h); the runner
 * prefetches it through the Context's shared ResultStore (parallel at
 * --jobs=N, deduped across figures, persisted with --store) before the
 * render function runs, so point()/baseline() are cache reads.
 */
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "sim/experiment.h"
#include "stats/metrics.h"

namespace bh::benchutil {

using bench::Context;

/** Print the standard bench header with the scale knobs in effect. */
inline void
header(const Context &ctx, const std::string &title,
       const std::string &paper_ref)
{
    std::printf("==== %s ====\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("scale: BH_INSTS=%llu BH_MIXES=%u%s\n\n",
                static_cast<unsigned long long>(ctx.instructions),
                ctx.mixesPerClass, ctx.fullSweep ? " (BH_FULL sweep)" : "");
}

/** All attack mixes at the context's mixes-per-class scale. */
inline std::vector<MixSpec>
attackMixes(const Context &ctx)
{
    std::vector<MixSpec> mixes;
    for (const std::string &pattern : attackMixPatterns())
        for (unsigned i = 0; i < ctx.mixesPerClass; ++i)
            mixes.push_back(makeMix(pattern, i));
    return mixes;
}

/** All benign mixes at the context's mixes-per-class scale. */
inline std::vector<MixSpec>
benignMixes(const Context &ctx)
{
    std::vector<MixSpec> mixes;
    for (const std::string &pattern : benignMixPatterns())
        for (unsigned i = 0; i < ctx.mixesPerClass; ++i)
            mixes.push_back(makeMix(pattern, i));
    return mixes;
}

/** Config of one (mix, mechanism, N_RH, BH) point. */
inline ExperimentConfig
pointConfig(const MixSpec &mix, MitigationType mech, unsigned n_rh,
            bool break_hammer)
{
    ExperimentConfig cfg;
    cfg.mix = mix;
    cfg.mechanism = mech;
    cfg.nRh = n_rh;
    cfg.breakHammer = break_hammer;
    return cfg;
}

/** Config of a mix's no-mitigation baseline (see SweepSpec). */
inline ExperimentConfig
baselineConfig(const MixSpec &mix)
{
    return SweepSpec::baselinePoint(mix);
}

/** Cached result of one (mix, mechanism, N_RH, BH) point. */
inline const ExperimentResult &
point(Context &ctx, const MixSpec &mix, MitigationType mech, unsigned n_rh,
      bool break_hammer)
{
    return ctx.store->get(pointConfig(mix, mech, n_rh, break_hammer));
}

/** Cached no-mitigation baseline of @p mix. */
inline const ExperimentResult &
baseline(Context &ctx, const MixSpec &mix)
{
    return ctx.store->get(baselineConfig(mix));
}

} // namespace bh::benchutil
