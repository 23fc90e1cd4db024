/**
 * @file
 * Declarative experiment sweeps.
 *
 * The paper's evaluation is a (mix × mechanism × N_RH × BreakHammer ×
 * ablation) grid, and before this layer every figure driver hand-rolled
 * its own nested loops to enumerate it. A SweepSpec is the declarative
 * replacement: a named builder that collects axes and expands them into an
 * ordered std::vector<ExperimentConfig> with expand(). The expansion is a
 * pure function of the spec — no environment reads, no hidden state — so
 * two processes that build the same spec enumerate the same points, which
 * is what lets a ResultStore shard a sweep across machines by content
 * address and merge the results.
 *
 * Axes default to a single neutral value (no mitigation, N_RH = 1024,
 * BreakHammer off, one identity variant), so a spec only names the axes
 * it actually sweeps:
 *
 *   SweepSpec("fig06")
 *       .mixes(attackMixes())
 *       .mechanisms(pairedMitigations())
 *       .breakHammerAxis();          // off and on
 *
 * withBaselines() prepends each mix's canonical no-mitigation baseline
 * point (shared across every figure that normalizes against it), variant()
 * adds labeled config transforms for ablation axes, and merge() splices
 * another spec's expansion in for figures whose grid is a union of
 * differently-shaped sections.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace bh {

/** One labeled point transform of a sweep's variant axis. */
struct SweepVariant
{
    std::string label;
    std::function<void(ExperimentConfig &)> apply;
};

/** Declarative (mix × mechanism × N_RH × BH × variant) sweep builder. */
class SweepSpec
{
  public:
    SweepSpec() = default;
    explicit SweepSpec(std::string name) : name_(std::move(name)) {}

    /** Append one mix to the mix axis. */
    SweepSpec &mix(MixSpec m);

    /** Append @p ms to the mix axis. */
    SweepSpec &mixes(const std::vector<MixSpec> &ms);

    /**
     * Append mixes @p per_class instances of each class in @p patterns
     * (makeMix(pattern, 0..per_class-1)), the paper's per-class scaling.
     */
    SweepSpec &mixClasses(const std::vector<std::string> &patterns,
                          unsigned per_class);

    /** Append one mechanism to the axis (unset = {kNone}). */
    SweepSpec &mechanism(MitigationType m);

    /** Append @p ms to the mechanism axis. */
    SweepSpec &mechanisms(const std::vector<MitigationType> &ms);

    /** Replace the N_RH axis (default {1024}) with a single value. */
    SweepSpec &nRh(unsigned n);

    /** Replace the N_RH axis (default {1024}). */
    SweepSpec &nRhValues(const std::vector<unsigned> &values);

    /** Replace the BreakHammer axis (default {off}) with a single value. */
    SweepSpec &breakHammer(bool on);

    /** Sweep BreakHammer both off and on. */
    SweepSpec &breakHammerAxis();

    /**
     * Also emit each mix's canonical no-mitigation baseline point (the
     * normalization denominator shared across figures), ahead of the
     * mix's swept points. The baseline inherits instructions() — a
     * denominator must run at the same horizon as the points it
     * normalizes — but no other axis, tweak, or variant.
     */
    SweepSpec &withBaselines();

    /** Set the per-point instruction horizon (0 = the store's default). */
    SweepSpec &instructions(std::uint64_t n);

    /** Enable the RowHammer oracle on every point. */
    SweepSpec &oracle(bool on);

    /**
     * Add one labeled transform to the variant axis (ablation knobs,
     * TH_threat multipliers, attacker shapes, ...). Variants apply last,
     * after every other axis, so they may override any field. Adding the
     * first variant replaces the implicit identity variant.
     */
    SweepSpec &variant(std::string label,
                       std::function<void(ExperimentConfig &)> apply);

    /**
     * Apply @p tweak to every swept point (before variants). Baseline
     * points are exempt: they stay the canonical shared configuration.
     */
    SweepSpec &forEach(std::function<void(ExperimentConfig &)> tweak);

    /**
     * Splice @p other's expansion after this spec's own points — for
     * figures whose grid is a union of differently-shaped sections
     * (e.g. Fig 18's +BH pairings next to bare BlockHammer).
     */
    SweepSpec &merge(const SweepSpec &other);

    const std::string &name() const { return name_; }

    /**
     * Enumerate the grid, in deterministic order: per mix (insertion
     * order), the baseline first when requested, then N_RH (outer) ×
     * mechanism × BreakHammer × variant (inner), followed by merged
     * sections. Duplicate points are allowed (the ResultStore dedupes by
     * content address).
     */
    std::vector<ExperimentConfig> expand() const;

    /** Number of points expand() will produce. */
    std::size_t pointCount() const { return expand().size(); }

    /**
     * The canonical no-mitigation baseline point of @p mix. N_RH is
     * irrelevant without a mechanism; pinning it (1024) keeps the content
     * address — and thus the simulation — shared by every figure that
     * normalizes against the baseline.
     */
    static ExperimentConfig baselinePoint(const MixSpec &mix);

  private:
    std::string name_;
    std::vector<MixSpec> mixes_;
    std::vector<MitigationType> mechanisms_;
    std::vector<unsigned> nRh_{1024};
    std::vector<bool> breakHammer_{false};
    std::vector<SweepVariant> variants_;
    std::vector<std::function<void(ExperimentConfig &)>> tweaks_;
    std::vector<ExperimentConfig> merged_;
    std::uint64_t instructions_ = 0;
    bool oracle_ = false;
    bool baselines_ = false;
};

/**
 * The resolved, content-address-deduplicated form of @p configs, in
 * first-occurrence order (benchmark/bh_perf.cc builds its workloads'
 * point lists with it). Each returned config is fully explicit
 * (resolveExperimentConfig()), so it runs the same under any
 * environment, and unique by experimentKey(), so two figures sweeping
 * the same point yield it once.
 */
std::vector<ExperimentConfig>
expandWorkUnits(const std::vector<ExperimentConfig> &configs);

} // namespace bh
