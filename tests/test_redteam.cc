/**
 * @file
 * Tests for the red-team fuzzer (sim/redteam.h): strategy spec
 * canonicalization and strict parsing, the seed-determinism of the
 * population/mutation machinery, slot rewriting, probe key isolation
 * (the |rt= suffix), fitness accounting from stored records, and a tiny
 * end-to-end search whose warm re-run simulates nothing and reports
 * byte-identical outcomes.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "sim/redteam.h"
#include "sim/result_store.h"

namespace bh {
namespace {

std::string
freshDir(const char *tag)
{
    std::string dir = ::testing::TempDir() + "bh_redteam_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(RedteamStrategyTest, CanonicalRoundTrip)
{
    RedteamStrategy s;
    s.pattern = AttackPattern::kHalfDouble;
    s.observeEvery = 48;
    s.maxBubbles = 96;
    s.group = 2;
    s.handoffEpoch = 2048;
    std::string spec = redteamStrategyCanonical(s);
    EXPECT_EQ(spec, "pat=half,obs=48,bub=96,grp=2,ho=2048");

    RedteamStrategy parsed;
    ASSERT_TRUE(parseRedteamStrategy(spec, &parsed));
    EXPECT_EQ(parsed.pattern, s.pattern);
    EXPECT_EQ(parsed.observeEvery, s.observeEvery);
    EXPECT_EQ(parsed.maxBubbles, s.maxBubbles);
    EXPECT_EQ(parsed.group, s.group);
    EXPECT_EQ(parsed.handoffEpoch, s.handoffEpoch);
    EXPECT_EQ(redteamStrategyCanonical(parsed), spec);
}

TEST(RedteamStrategyTest, MalformedSpecsAreRejected)
{
    RedteamStrategy out;
    const char *bad[] = {
        "",
        "pat=many",
        "pat=sideways,obs=64,bub=64,grp=1,ho=0",
        "obs=64,pat=many,bub=64,grp=1,ho=0",   // Wrong field order.
        "pat=many,obs=64,bub=0,grp=1,ho=0",    // bub below bounds.
        "pat=many,obs=64,bub=64,grp=9,ho=0",   // grp above bounds.
        "pat=many,obs=64,bub=64,grp=1,ho=-1",  // Sign rejected.
        "pat=many,obs=064,bub=64,grp=1,ho=0",  // Non-canonical digits.
        "pat=many,obs=64,bub=64,grp=1,ho=0,x=1",
        "pat=many,obs=9999999,bub=64,grp=1,ho=0",
    };
    for (const char *spec : bad) {
        EXPECT_FALSE(parseRedteamStrategy(spec, &out)) << spec;
        // A failed parse must leave the output untouched.
        EXPECT_EQ(out.observeEvery, 64u) << spec;
    }
}

TEST(RedteamStrategyTest, EveryCanonicalStringReparses)
{
    // Round-trip through canonical form for the whole initial population
    // and a chain of mutations: the |rt= key of every probe must parse.
    std::vector<RedteamStrategy> pop = redteamInitialPopulation(7, 16);
    Rng rng(99);
    for (int i = 0; i < 50; ++i)
        pop.push_back(mutateRedteamStrategy(&rng, pop[i % pop.size()]));
    for (const RedteamStrategy &s : pop) {
        std::string spec = redteamStrategyCanonical(s);
        RedteamStrategy parsed;
        ASSERT_TRUE(parseRedteamStrategy(spec, &parsed)) << spec;
        EXPECT_EQ(redteamStrategyCanonical(parsed), spec);
    }
}

TEST(RedteamSpecTest, ParseAndBounds)
{
    RedteamSpec spec;
    ASSERT_TRUE(parseRedteamSpec("3/4/8", &spec));
    EXPECT_EQ(spec.seed, 3u);
    EXPECT_EQ(spec.rounds, 4u);
    EXPECT_EQ(spec.population, 8u);

    const char *bad[] = {"", "1", "1/2", "0/2/4", "1/0/4",
                         "1/2/0", "1/17/4", "1/2/65", "a/2/4", "1/2/4/8"};
    for (const char *text : bad)
        EXPECT_FALSE(parseRedteamSpec(text, &spec)) << text;
}

TEST(RedteamPopulationTest, SeedDeterministic)
{
    std::vector<RedteamStrategy> a = redteamInitialPopulation(5, 8);
    std::vector<RedteamStrategy> b = redteamInitialPopulation(5, 8);
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(redteamStrategyCanonical(a[i]),
                  redteamStrategyCanonical(b[i]));
    // A different seed draws a different population (the pattern genes
    // cycle deterministically, so compare whole canonical strings).
    std::vector<RedteamStrategy> c = redteamInitialPopulation(6, 8);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= redteamStrategyCanonical(a[i]) !=
                    redteamStrategyCanonical(c[i]);
    EXPECT_TRUE(any_diff);
}

TEST(RedteamPopulationTest, MutationsAreDeterministicAndAdaptive)
{
    RedteamStrategy parent;
    Rng r1(42), r2(42);
    for (int i = 0; i < 40; ++i) {
        RedteamStrategy a = mutateRedteamStrategy(&r1, parent);
        RedteamStrategy b = mutateRedteamStrategy(&r2, parent);
        EXPECT_EQ(redteamStrategyCanonical(a),
                  redteamStrategyCanonical(b));
        // Mutations explore adaptive space only — baselines are fixed
        // by construction, not by luck of the draw.
        EXPECT_TRUE(a.adaptive());
        parent = a;
    }
}

TEST(RedteamApplyTest, RewritesAttackerSlotsOnly)
{
    MixSpec mix = makeMix("MMAA", 0);
    RedteamStrategy s;
    s.pattern = AttackPattern::kDoubleSided;
    s.observeEvery = 32;
    s.maxBubbles = 128;
    s.group = 2;
    s.handoffEpoch = 512;
    applyRedteamStrategy(s, &mix.slots);

    unsigned adaptive_slots = 0;
    for (std::size_t i = 0; i < mix.slots.size(); ++i) {
        const WorkloadSlot &slot = mix.slots[i];
        if (slot.kind == WorkloadSlot::Kind::kBenign)
            continue;
        EXPECT_EQ(slot.kind, WorkloadSlot::Kind::kAdaptiveAttacker);
        EXPECT_EQ(slot.attacker.pattern, AttackPattern::kDoubleSided);
        EXPECT_EQ(slot.adaptive.observeEvery, 32u);
        EXPECT_EQ(slot.adaptive.maxBubbles, 128u);
        EXPECT_EQ(slot.adaptive.groupSize, 2u);
        EXPECT_EQ(slot.adaptive.slotIndex, adaptive_slots);
        EXPECT_EQ(slot.adaptive.handoffEpoch, 512u);
        ++adaptive_slots;
    }
    EXPECT_EQ(adaptive_slots, 2u);

    // Group size is capped at the attacker-slot count.
    MixSpec one = makeMix("HHMA", 0);
    applyRedteamStrategy(s, &one.slots);
    for (const WorkloadSlot &slot : one.slots) {
        if (slot.kind != WorkloadSlot::Kind::kBenign) {
            EXPECT_EQ(slot.adaptive.groupSize, 1u);
        }
    }
}

TEST(RedteamKeyTest, ProbeKeysNeverAliasCanonicalRecords)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMAA", 0);
    cfg.mechanism = MitigationType::kPara;
    cfg.breakHammer = true;
    cfg.instructions = 4000;
    std::string canonical = experimentKey(cfg);
    EXPECT_EQ(canonical.find("|rt="), std::string::npos);

    cfg.redteam = "pat=many,obs=64,bub=64,grp=1,ho=0";
    std::string probe = experimentKey(cfg);
    EXPECT_NE(probe, canonical);
    ASSERT_NE(probe.find("|rt="), std::string::npos);
    // The suffix is append-only: the canonical prefix is unchanged.
    EXPECT_EQ(probe.substr(0, canonical.size()), canonical);
    EXPECT_EQ(probe.substr(canonical.size()),
              "|rt=pat=many,obs=64,bub=64,grp=1,ho=0");
}

TEST(RedteamFitnessTest, DividesPreventiveActionsByAttackerActs)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMAA", 0);
    ExperimentResult result;
    result.preventiveActions = 30;
    // Slots 0..1 benign, 2..3 attackers.
    result.raw.demandActsPerThread = {1000, 1000, 40, 60};
    EXPECT_DOUBLE_EQ(redteamFitness(cfg, result), 0.3);
    // Below the activation floor the strategy is disqualified: total
    // back-off must never rank as evasion.
    result.raw.demandActsPerThread = {1000, 1000, 10, 5};
    EXPECT_TRUE(std::isinf(redteamFitness(cfg, result)));
}

TEST(RedteamSearchTest, WarmRerunIsDeterministicAndSimulatesNothing)
{
    std::string dir = freshDir("search");
    RedteamSpec spec;
    spec.seed = 2;
    spec.rounds = 2;
    spec.population = 3;
    spec.instructions = 1500;
    spec.mechanisms = {MitigationType::kPara};

    std::string error;
    RedteamReport cold_report;
    std::size_t cold_simulated = 0;
    {
        ResultStore store(4);
        ASSERT_TRUE(store.open(dir, &error)) << error;
        cold_report = runRedteamSearch(spec, &store);
        cold_simulated = store.stats().computed;
    }
    EXPECT_GT(cold_report.probes, 0u);
    EXPECT_GT(cold_simulated, 0u);
    ASSERT_EQ(cold_report.mechanisms.size(), 1u);

    // Warm re-run in a fresh process-model store: every probe loads,
    // nothing simulates, and the report is identical — including at a
    // different job count.
    ResultStore warm(1);
    ASSERT_TRUE(warm.open(dir, &error)) << error;
    RedteamReport warm_report = runRedteamSearch(spec, &warm);
    EXPECT_EQ(warm.stats().computed, 0u);
    EXPECT_EQ(warm_report.probes, cold_report.probes);
    EXPECT_EQ(warm_report.improvedAny, cold_report.improvedAny);
    const RedteamMechanismOutcome &a = cold_report.mechanisms[0];
    const RedteamMechanismOutcome &b = warm_report.mechanisms[0];
    EXPECT_EQ(a.bestFixedStrategy, b.bestFixedStrategy);
    EXPECT_EQ(a.bestAdaptiveStrategy, b.bestAdaptiveStrategy);
    EXPECT_EQ(a.bestFixedFitness, b.bestFixedFitness);
    EXPECT_EQ(a.bestAdaptiveFitness, b.bestAdaptiveFitness);
    EXPECT_EQ(a.improved, b.improved);

    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace bh
