/**
 * @file
 * Deterministic red-team fuzzer over attacker-strategy × mechanism space.
 *
 * A RedteamStrategy is the genome of one adaptive attacker: spatial
 * pattern, observation cadence, pacing ceiling, and thread-rotation group
 * — rendered as a canonical spec string that doubles as the `|rt=` key
 * suffix of every persisted probe (so probes never alias canonical figure
 * records) and as the ExperimentConfig::redteam field that makes
 * runExperiment() rewrite the mix's attacker slots into adaptive traces.
 *
 * runRedteamSearch() is a seed-deterministic evolutionary loop: a fixed
 * initial population (plus non-adaptive `obs=0` baselines, one per
 * pattern) probes every mechanism through the existing SweepSpec engine
 * and the ResultStore, survivors are ranked by evasion fitness
 * (preventive actions per attacker activation — lower is more evasive),
 * and children are mutated with an Rng derived from the spec seed alone.
 * Every decision is a pure function of (spec, store contents), so a
 * search re-run against a warm store simulates nothing and reports
 * byte-identical results at any job count.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/experiment.h"
#include "trace/adaptive.h"

namespace bh {

class ResultStore;

/** One attacker strategy: the genome of the red-team search. */
struct RedteamStrategy
{
    AttackPattern pattern = AttackPattern::kManySided;
    /** Records between feedback observations; 0 = fixed (no loop). */
    unsigned observeEvery = 64;
    /** Pacing ceiling the adaptation may back off to. */
    std::uint32_t maxBubbles = 64;
    /** Thread-rotation group size over the mix's attacker slots. */
    unsigned group = 1;
    /** Records per rotation ownership epoch (0 = no hand-off). */
    std::uint64_t handoffEpoch = 0;

    bool adaptive() const { return observeEvery > 0; }
};

/**
 * Canonical spec string: `pat=<many|double|half>,obs=N,bub=N,grp=N,ho=N`.
 * Strict field order; no characters that could collide with the `|`
 * separators of experimentKey().
 */
std::string redteamStrategyCanonical(const RedteamStrategy &s);

/**
 * Parse a canonical spec string. Strict: all five fields, in order,
 * within bounds (obs <= 1e6, 1 <= bub <= 65536, 1 <= grp <= 8,
 * ho <= 1e9). @return false leaves @p out untouched.
 */
bool parseRedteamStrategy(const std::string &spec, RedteamStrategy *out);

/**
 * Rewrite @p slots' attacker slots into adaptive attackers per @p s
 * (rotation group capped at the attacker-slot count). Benign slots are
 * untouched. An `obs=0` strategy yields a trace whose record stream is
 * bit-identical to the fixed AttackerTrace — the fuzzer's baselines.
 */
void applyRedteamStrategy(const RedteamStrategy &s,
                          std::vector<WorkloadSlot> *slots);

/** Fuzzer-loop parameters (the bh_bench --redteam=SEED/ROUNDS/POP flag). */
struct RedteamSpec
{
    std::uint64_t seed = 1;
    unsigned rounds = 2;
    unsigned population = 4;
    /** Per-probe horizon (0 = the store's default). Not in the flag. */
    std::uint64_t instructions = 0;
    /** Mechanisms searched (empty = {PARA, Graphene, Hydra}). */
    std::vector<MitigationType> mechanisms;
};

/** Parse "SEED/ROUNDS/POP" (all >= 1; rounds <= 16, pop <= 64). */
bool parseRedteamSpec(const std::string &text, RedteamSpec *out);

/** The deterministic round-0 population for @p seed. */
std::vector<RedteamStrategy>
redteamInitialPopulation(std::uint64_t seed, unsigned population);

/** One deterministic mutation of @p parent drawn from @p rng. */
RedteamStrategy mutateRedteamStrategy(Rng *rng,
                                      const RedteamStrategy &parent);

/**
 * Evasion fitness of a probe: preventive actions per attacker demand
 * activation (lower = more evasive at equal activations). Probes whose
 * attacker slots activated fewer than @p min_attacker_acts rows are
 * disqualified (+infinity): total back-off is not evasion.
 */
double redteamFitness(const ExperimentConfig &config,
                      const ExperimentResult &result,
                      std::uint64_t min_attacker_acts = 32);

/** Best fixed-vs-adaptive outcome under one mechanism. */
struct RedteamMechanismOutcome
{
    MitigationType mechanism = MitigationType::kNone;
    double bestFixedFitness = 0.0;
    double bestAdaptiveFitness = 0.0;
    std::string bestFixedStrategy;
    std::string bestAdaptiveStrategy;
    /** Strictly lower adaptive fitness than every fixed baseline. */
    bool improved = false;
};

/** Outcome of one runRedteamSearch(). */
struct RedteamReport
{
    std::vector<RedteamMechanismOutcome> mechanisms;
    std::size_t probes = 0;   ///< Probe points evaluated (all rounds).
    bool improvedAny = false; ///< Some mechanism was out-evaded.
};

/**
 * Run the full fuzzer loop against @p store (probes persist under their
 * `|rt=` keys; a warm store simulates nothing). Deterministic for a
 * given (spec, store) at any job count.
 */
RedteamReport runRedteamSearch(const RedteamSpec &spec,
                               ResultStore *store);

} // namespace bh
