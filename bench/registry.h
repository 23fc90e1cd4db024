/**
 * @file
 * Figure registry for the unified bench runner.
 *
 * Every figure driver registers a name, a title, the paper reference it
 * reproduces, an optional declarative SweepSpec describing its experiment
 * grid, and a render function. The bh_bench binary looks figures up by
 * name (`bh_bench fig06`), lists them (`--list`), or runs the whole set
 * (`bh_bench all`).
 *
 * The sweep/render split is what makes grids schedulable as data: the
 * runner prefetches a figure's sweep through the shared ResultStore
 * (parallel, deduped across figures, persisted with --store) before
 * calling render, and in --shard mode it unions every selected figure's
 * sweep, computes only this machine's shard, and skips rendering
 * entirely. Figures without experiment grids (analytic models, config
 * tables) register render only.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/result_store.h"
#include "sim/sweep.h"

namespace bh::bench {

/**
 * Shared state handed to every figure sweep and render: the result store
 * and the grid shape bh_bench parsed from BH_INSTS, BH_MIXES and BH_FULL.
 */
struct Context
{
    /** Content-addressed result cache shared across figures. */
    ResultStore *store = nullptr;
    /** Per-benign-core horizon the store resolves unset configs to. */
    std::uint64_t instructions = kDefaultInstructions;
    /** Mixes per class (the paper uses 15). */
    unsigned mixesPerClass = 1;
    /** Sweep every N_RH from 4K down to 64, not just three points. */
    bool fullSweep = false;

    /** The N_RH axis of the scaling figures. */
    std::vector<unsigned>
    nrhSweep() const
    {
        if (fullSweep)
            return {4096, 2048, 1024, 512, 256, 128, 64};
        return {4096, 1024, 64};
    }
};

using SweepFn = SweepSpec (*)(const Context &);
using RenderFn = void (*)(Context &);

/** One registered figure driver. */
struct Figure
{
    std::string name;     ///< CLI name, e.g. "fig06".
    std::string title;    ///< Human-readable headline.
    std::string paperRef; ///< e.g. "paper Fig 6 (§8.1)".
    SweepFn sweep = nullptr;  ///< Experiment grid; null = no experiments.
    RenderFn render = nullptr;
    /**
     * Part of "bh_bench all"? Paper figures are; beyond-paper scaling
     * studies register with inAll = false and run only when named
     * explicitly, so the canonical "all --json" export stays stable as
     * studies accumulate.
     */
    bool inAll = true;
};

/** Register @p figure (called by static Registrar initializers). */
void registerFigure(Figure figure);

/** All registered figures, sorted by name. */
std::vector<Figure> figures();

/** Look up a figure by CLI name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

/** Static-initialization helper behind the registration macros. */
struct Registrar
{
    Registrar(const char *name, const char *title, const char *paper_ref,
              SweepFn sweep, RenderFn render, bool in_all = true)
    {
        registerFigure(
            Figure{name, title, paper_ref, sweep, render, in_all});
    }
};

} // namespace bh::bench

/**
 * Define and register a figure without an experiment grid (analytic
 * models, config tables):
 *
 *   BH_BENCH_FIGURE("fig05", "Security bound", "paper Fig 5") { ... }
 */
#define BH_BENCH_FIGURE(name, title, ref)                                      \
    static void bhBenchRun(::bh::bench::Context &ctx);                         \
    static ::bh::bench::Registrar bhBenchRegistrar{name, title, ref,           \
                                                   nullptr, &bhBenchRun};      \
    static void bhBenchRun([[maybe_unused]] ::bh::bench::Context &ctx)

/**
 * Define and register a figure with a declarative experiment sweep. The
 * macro introduces the render body; the file must also define the
 * forward-declared sweep function:
 *
 *   BH_BENCH_SWEEP_FIGURE("fig06", "Benign performance under attack",
 *                         "paper Fig 6 (§8.1)") { ... render from ctx ... }
 *
 *   static bh::SweepSpec
 *   bhBenchSweep(const bh::bench::Context &ctx)
 *   {
 *       return bh::SweepSpec("fig06")...;
 *   }
 */
#define BH_BENCH_SWEEP_FIGURE(name, title, ref)                                \
    static ::bh::SweepSpec bhBenchSweep(const ::bh::bench::Context &ctx);      \
    static void bhBenchRun(::bh::bench::Context &ctx);                         \
    static ::bh::bench::Registrar bhBenchRegistrar{                            \
        name, title, ref, &bhBenchSweep, &bhBenchRun};                         \
    static void bhBenchRun([[maybe_unused]] ::bh::bench::Context &ctx)

/**
 * Like BH_BENCH_SWEEP_FIGURE, but for beyond-paper scaling studies:
 * registered and listable, yet excluded from "bh_bench all" so the
 * canonical full-set JSON export keeps its bytes as studies accumulate.
 * Run them by name: `bh_bench chscale`.
 */
#define BH_BENCH_SWEEP_STUDY(name, title, ref)                                 \
    static ::bh::SweepSpec bhBenchSweep(const ::bh::bench::Context &ctx);      \
    static void bhBenchRun(::bh::bench::Context &ctx);                         \
    static ::bh::bench::Registrar bhBenchRegistrar{                            \
        name, title, ref, &bhBenchSweep, &bhBenchRun, false};                  \
    static void bhBenchRun([[maybe_unused]] ::bh::bench::Context &ctx)
