/**
 * @file
 * Tests for the persistent content-addressed ResultStore
 * (sim/result_store.h): in-memory memoization (the old ExperimentPool
 * contract), cross-process round-trips (write, reload in a fresh store,
 * bit-identical JSON), schema-version mismatches triggering recompute
 * rather than corruption, torn-line tolerance, stores that still hold
 * interval-sampled records, shard-merge equivalence with an unsharded
 * run, solo-IPC persistence, ingest() of an externally computed record
 * (the same line a local run writes, first record wins, garbage
 * refused), the single-writer flock, and untrusted bytes: damaged lines
 * and out-of-range counts read as skipped or missed, lines in any member
 * order load, and a seeded mutation test holds open() to a full-parse
 * reference decode. "Cross-process" is modeled by destroying one store
 * and opening another on the same directory — the disk file is the only
 * state they share.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>

#include "sim/result_store.h"
#include "stats/json_stats.h"

namespace bh {
namespace {

constexpr std::uint64_t kInsts = 8000;

ExperimentConfig
smallConfig(const char *pattern, MitigationType mech, unsigned n_rh,
            bool bh_on)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix(pattern, 0);
    cfg.mechanism = mech;
    cfg.nRh = n_rh;
    cfg.breakHammer = bh_on;
    cfg.instructions = kInsts;
    return cfg;
}

std::vector<ExperimentConfig>
testGrid()
{
    return {
        smallConfig("HHMA", MitigationType::kGraphene, 512, true),
        smallConfig("HHMA", MitigationType::kGraphene, 512, false),
        smallConfig("LLLA", MitigationType::kPara, 1024, true),
        smallConfig("MMLL", MitigationType::kNone, 1024, false),
        smallConfig("MMLA", MitigationType::kRfm, 256, true),
        smallConfig("HHMM", MitigationType::kHydra, 512, false),
    };
}

/** Bit-exact equality of two experiment results. */
void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.maxSlowdown, b.maxSlowdown);
    EXPECT_EQ(a.energyNj, b.energyNj);
    EXPECT_EQ(a.preventiveActions, b.preventiveActions);
    EXPECT_EQ(a.raw.cycles, b.raw.cycles);
    EXPECT_EQ(a.raw.demandActs, b.raw.demandActs);
    EXPECT_EQ(a.raw.suspectMarks, b.raw.suspectMarks);
    EXPECT_EQ(a.raw.quotaRejections, b.raw.quotaRejections);
    EXPECT_EQ(a.raw.preventiveEnergyNj, b.raw.preventiveEnergyNj);
    EXPECT_EQ(a.raw.bhScores, b.raw.bhScores);
    EXPECT_EQ(a.raw.bhQuotas, b.raw.bhQuotas);
    EXPECT_EQ(a.raw.benignIpcs(), b.raw.benignIpcs());
    EXPECT_TRUE(a.raw.benignReadLatencyNs == b.raw.benignReadLatencyNs);
}

/** A fresh (removed and re-creatable) store directory for @p tag. */
std::string
storeDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "bh_result_store_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
resultsPath(const std::string &dir)
{
    return dir + "/results.jsonl";
}

// ---------------------------------------------------------------------
// In-memory memoization (the contract inherited from ExperimentPool).
// ---------------------------------------------------------------------

TEST(ResultStoreTest, MemoizesAndDedupsPrefetch)
{
    ResultStore store(2);
    ExperimentConfig cfg =
        smallConfig("MMLL", MitigationType::kNone, 1024, false);

    // Duplicates inside one prefetch collapse to one simulation.
    store.prefetch({cfg, cfg, cfg});
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().computed, 1u);

    // A second prefetch of a cached point adds nothing.
    store.prefetch({cfg});
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().computed, 1u);

    const ExperimentResult &a = store.get(cfg);
    const ExperimentResult &b = store.get(cfg);
    EXPECT_EQ(&a, &b); // same cached entry, not a re-run

    ExperimentResult direct = runExperiment(cfg);
    expectIdentical(direct, a);
}

TEST(ResultStoreTest, JsonSortedByKeyAndStable)
{
    std::vector<ExperimentConfig> grid = testGrid();

    ResultStore store1(1), store8(8);
    // Feed the stores in different orders; the export must not care.
    store1.prefetch(grid);
    std::vector<ExperimentConfig> reversed(grid.rbegin(), grid.rend());
    store8.prefetch(reversed);

    EXPECT_EQ(store1.toJson().dump(), store8.toJson().dump());

    JsonValue arr = store1.toJson();
    ASSERT_EQ(arr.size(), grid.size());
    for (std::size_t i = 1; i < arr.size(); ++i)
        EXPECT_LT(arr.at(i - 1).get("key").asString(),
                  arr.at(i).get("key").asString());
}

TEST(ResultStoreTest, DefaultedHorizonResolvesIntoTheContentAddress)
{
    // A config that leaves instructions/bh defaulted (resolved from the
    // store's ConfigDefaults, which bh_bench fills from BH_INSTS) must be
    // cached under the same content address as the equivalent fully
    // explicit config...
    ExperimentConfig defaulted =
        smallConfig("MMLL", MitigationType::kNone, 1024, false);
    defaulted.instructions = 0;
    ExperimentConfig explicit_cfg = defaulted;
    explicit_cfg.instructions = 3000;
    explicit_cfg.bh = scaledBreakHammerConfig(3000);

    ResultStore store(1);
    ConfigDefaults defaults;
    defaults.instructions = 3000;
    store.setDefaults(defaults);
    store.prefetch({defaulted, explicit_cfg});
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().computed, 1u);

    // ...and a different default horizon must be a different address —
    // a store consulted at a new BH_INSTS recomputes instead of
    // silently serving wrong-horizon records.
    defaults.instructions = 4000;
    store.setDefaults(defaults);
    store.get(defaulted);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.stats().computed, 2u);
}

// ---------------------------------------------------------------------
// The durable schema round-trips exactly.
// ---------------------------------------------------------------------

TEST(ResultStoreTest, ExperimentJsonRoundTripIsByteExact)
{
    ExperimentConfig cfg =
        smallConfig("HHMA", MitigationType::kGraphene, 512, true);
    ExperimentResult direct = runExperiment(cfg);

    JsonValue doc = experimentResultToJson(cfg, direct);
    std::string first = doc.dump(2);

    JsonValue reparsed = JsonValue::parseOrDie(first);
    ExperimentResult restored;
    ASSERT_TRUE(experimentResultFromJson(reparsed, &restored));
    expectIdentical(direct, restored);

    // Re-serializing the restored result reproduces the document byte
    // for byte — the property that makes warm-store JSON exports
    // identical to cold ones.
    EXPECT_EQ(experimentResultToJson(cfg, restored).dump(2), first);

    // The widened schema carries the full histogram, not just summary
    // percentiles: the parsed histogram answers every query identically.
    EXPECT_TRUE(restored.raw.benignReadLatencyNs ==
                direct.raw.benignReadLatencyNs);
    const JsonValue &lat =
        reparsed.get("raw").get("benign_read_latency_ns");
    Histogram h = histogramFromJson(lat.get("histogram"));
    EXPECT_TRUE(h == direct.raw.benignReadLatencyNs);
}

TEST(ResultStoreTest, FromJsonRejectsOlderSchemaLayouts)
{
    ExperimentConfig cfg =
        smallConfig("MMLL", MitigationType::kNone, 1024, false);
    JsonValue doc = experimentResultToJson(cfg, runExperiment(cfg));

    // A pre-store record had no per-core array; rebuild the document
    // without it and expect a clean refusal, not garbage.
    JsonValue stripped = JsonValue::object();
    for (const auto &member : doc.members()) {
        if (member.first != "raw") {
            stripped.set(member.first, member.second);
            continue;
        }
        JsonValue raw = JsonValue::object();
        for (const auto &raw_member : member.second.members())
            if (raw_member.first != "cores")
                raw.set(raw_member.first, raw_member.second);
        stripped.set("raw", std::move(raw));
    }

    ExperimentResult out;
    EXPECT_FALSE(experimentResultFromJson(stripped, &out));
    EXPECT_TRUE(experimentResultFromJson(doc, &out));
}

// ---------------------------------------------------------------------
// Persistence: cross-process round-trip, versioning, sharding.
// ---------------------------------------------------------------------

TEST(ResultStoreTest, ReloadInFreshStoreIsBitIdenticalAndSimulatesNothing)
{
    std::string dir = storeDir("roundtrip");
    std::vector<ExperimentConfig> grid = testGrid();

    std::string cold_json;
    {
        ResultStore store(2);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch(grid);
        EXPECT_EQ(store.stats().computed, grid.size());
        cold_json = store.toJson().dump(2);
    }

    ResultStore warm(2);
    std::string error;
    ASSERT_TRUE(warm.open(dir, &error)) << error;
    EXPECT_EQ(warm.stats().loaded, grid.size());
    warm.prefetch(grid);
    EXPECT_EQ(warm.stats().computed, 0u) << "warm run must not simulate";
    EXPECT_EQ(warm.stats().hits, grid.size());
    EXPECT_EQ(warm.toJson().dump(2), cold_json);

    for (const ExperimentConfig &cfg : grid)
        expectIdentical(runExperiment(cfg), warm.get(cfg));
}

TEST(ResultStoreTest, SchemaVersionMismatchTriggersRecomputeNotCorruption)
{
    std::string dir = storeDir("version");
    ExperimentConfig cfg =
        smallConfig("HHMM", MitigationType::kHydra, 512, false);

    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch({cfg});
    }

    // Rewrite every record under a different schema version, emulating a
    // store written by an older (or newer) binary.
    std::string rewritten;
    {
        std::ifstream in(resultsPath(dir));
        std::string line;
        while (std::getline(in, line)) {
            JsonValue rec = JsonValue::parseOrDie(line);
            rec.set("v", ResultStore::kSchemaVersion + 1);
            rewritten += rec.dump() + "\n";
        }
    }
    {
        std::ofstream out(resultsPath(dir), std::ios::trunc);
        out << rewritten;
    }

    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    EXPECT_EQ(store.stats().loaded, 0u);
    EXPECT_GE(store.stats().skipped, 1u);

    // The point recomputes cleanly and lands back in the store.
    expectIdentical(runExperiment(cfg), store.get(cfg));
    EXPECT_EQ(store.stats().computed, 1u);
}

TEST(ResultStoreTest, TornTrailingLineIsSkippedNotFatal)
{
    std::string dir = storeDir("torn");
    ExperimentConfig cfg =
        smallConfig("MMLL", MitigationType::kNone, 1024, false);

    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch({cfg});
    }
    {
        // A crashed writer's torn tail: half a record, no newline.
        std::ofstream out(resultsPath(dir), std::ios::app);
        out << "{\"v\":1,\"kind\":\"experiment\",\"key\":\"tr";
    }

    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    EXPECT_GE(store.stats().skipped, 1u);
    store.prefetch({cfg});
    EXPECT_EQ(store.stats().computed, 0u); // intact record still serves
}

TEST(ResultStoreTest, TornMiddleLineKeepsFollowingRecords)
{
    // Mid-file truncation: a writer is killed mid-record (no trailing
    // newline) and a later run appends valid records after it — exactly
    // what kill-and-resume checkpointing makes common. The torn bytes
    // fuse with the next record into one physical line; only the torn
    // prefix may be dropped, never the valid record or the remainder of
    // the file.
    std::string dir = storeDir("torn-middle");
    ExperimentConfig cfg_a =
        smallConfig("MMLL", MitigationType::kNone, 1024, false);
    ExperimentConfig cfg_b =
        smallConfig("LLLA", MitigationType::kPara, 1024, true);

    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch({cfg_a, cfg_b});
    }

    // Rebuild the file with a torn prefix fused onto ONE of the
    // experiment lines (the later lines stay intact behind it).
    std::vector<std::string> lines;
    {
        std::ifstream in(resultsPath(dir));
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    {
        std::ofstream out(resultsPath(dir), std::ios::trunc);
        bool fused = false;
        for (const std::string &line : lines) {
            if (!fused && line.find("\"kind\":\"experiment\"") !=
                              std::string::npos) {
                // The torn record ends mid-string, no newline.
                out << "{\"v\":2,\"kind\":\"experiment\",\"key\":\"ha"
                    << line << "\n";
                fused = true;
            } else {
                out << line << "\n";
            }
        }
        ASSERT_TRUE(fused);
    }

    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    EXPECT_EQ(store.stats().loaded, 2u); // both records survive
    EXPECT_GE(store.stats().skipped, 1u); // the torn prefix
    store.prefetch({cfg_a, cfg_b});
    EXPECT_EQ(store.stats().computed, 0u);
}

TEST(ResultStoreTest, StoreHoldingSampledRecordsStillServesExactOnes)
{
    // Stores written while interval sampling existed can hold records
    // keyed `<exact key>|sample=W/M/F` whose payload carries a
    // `sampling` block. Such a record is never requested again, but the
    // store must still open, serve the exact point beside it, and
    // export only what was requested.
    std::string dir = storeDir("sampled-legacy");
    ExperimentConfig cfg =
        smallConfig("LLLA", MitigationType::kPara, 1024, true);
    const std::string key = experimentKey(resolveExperimentConfig(cfg));
    const JsonValue exact =
        experimentResultToJson(resolveExperimentConfig(cfg),
                               runExperiment(cfg));

    auto metric = [](double mean, double ci95) {
        JsonValue m = JsonValue::object();
        m.set("mean", mean);
        m.set("ci95", ci95);
        return m;
    };
    JsonValue sampling = JsonValue::object();
    sampling.set("warmup", 1000);
    sampling.set("measure", 1000);
    sampling.set("fast_forward", 3500);
    sampling.set("windows", 1);
    sampling.set("weighted_speedup", metric(2.5, 0.0));
    sampling.set("max_slowdown", metric(1.5, 0.0));
    sampling.set("preventive_actions", metric(12.0, 0.0));
    sampling.set("p99_latency_ns", metric(180.0, 0.0));
    const std::string sampled_key = key + "|sample=1000/1000/3500";
    JsonValue sampled = exact;
    sampled.set("key", sampled_key);
    sampled.set("sampling", std::move(sampling));

    std::filesystem::create_directories(dir);
    {
        std::ofstream out(resultsPath(dir));
        for (const auto &[k, payload] :
             {std::pair{key, exact}, std::pair{sampled_key, sampled}}) {
            JsonValue rec = JsonValue::object();
            rec.set("v", ResultStore::kSchemaVersion);
            rec.set("kind", "experiment");
            rec.set("key", k);
            rec.set("payload", payload);
            out << rec.dump() << "\n";
        }
    }

    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    EXPECT_EQ(store.stats().loaded, 2u);
    EXPECT_EQ(store.stats().skipped, 0u);
    EXPECT_NE(store.lookup(cfg), nullptr);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().computed, 0u);

    JsonValue exported = store.toJson();
    ASSERT_EQ(exported.size(), 1u);
    EXPECT_EQ(exported.at(0).get("key").asString(), key);
    EXPECT_EQ(exported.at(0).dump(), exact.dump());
}

TEST(ResultStoreTest, ShardedStoresMergeToTheUnshardedResult)
{
    std::vector<ExperimentConfig> grid = testGrid();

    std::string dir_full = storeDir("full");
    std::string cold_json;
    {
        ResultStore store(2);
        std::string error;
        ASSERT_TRUE(store.open(dir_full, &error)) << error;
        store.prefetch(grid);
        cold_json = store.toJson().dump(2);
    }

    // Two shard "machines", each computing only its content-addressed
    // half into its own store.
    std::string dir_s1 = storeDir("shard1");
    std::string dir_s2 = storeDir("shard2");
    std::size_t computed_total = 0;
    for (unsigned shard = 1; shard <= 2; ++shard) {
        ResultStore store(2);
        std::string error;
        ASSERT_TRUE(store.open(shard == 1 ? dir_s1 : dir_s2, &error))
            << error;
        store.setShard(shard, 2);
        store.prefetch(grid);
        EXPECT_EQ(store.stats().computed + store.stats().shardSkipped,
                  grid.size());
        computed_total += store.stats().computed;
    }
    EXPECT_EQ(computed_total, grid.size()) << "shards must partition";

    // Merge = concatenate the append-only files.
    std::string dir_merged = storeDir("merged");
    std::filesystem::create_directories(dir_merged);
    {
        std::ofstream out(resultsPath(dir_merged), std::ios::binary);
        for (const std::string &dir : {dir_s1, dir_s2}) {
            std::ifstream in(resultsPath(dir), std::ios::binary);
            out << in.rdbuf();
        }
    }

    ResultStore merged(2);
    std::string error;
    ASSERT_TRUE(merged.open(dir_merged, &error)) << error;
    merged.prefetch(grid);
    EXPECT_EQ(merged.stats().computed, 0u);
    EXPECT_EQ(merged.toJson().dump(2), cold_json);
}

TEST(ResultStoreTest, SoloIpcRunsPersistAndReload)
{
    std::string dir = storeDir("solo");
    // A unique instruction count so this test's solo runs cannot already
    // sit in the process-wide solo cache.
    ExperimentConfig cfg =
        smallConfig("HHMM", MitigationType::kHydra, 512, false);
    cfg.instructions = 7777;

    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch({cfg});
        // One solo run per benign app in the mix.
        EXPECT_EQ(store.stats().soloComputed,
                  benignApps(cfg.mix).size());
    }

    ResultStore warm(1);
    std::string error;
    ASSERT_TRUE(warm.open(dir, &error)) << error;
    EXPECT_EQ(warm.stats().soloLoaded, benignApps(cfg.mix).size());
    warm.prefetch({cfg});
    EXPECT_EQ(warm.stats().computed, 0u);
    EXPECT_EQ(warm.stats().soloComputed, 0u);
}

// ---------------------------------------------------------------------
// Externally computed records and the single-writer lock.
// ---------------------------------------------------------------------

/** The "experiment" lines of @p dir's results.jsonl, in file order.
 *  Solo lines are left out: the process-wide solo cache means only
 *  whichever store simulated a denominator first writes it. */
std::vector<std::string>
experimentLines(const std::string &dir)
{
    std::vector<std::string> lines;
    std::ifstream in(resultsPath(dir));
    for (std::string line; std::getline(in, line);)
        if (line.find("\"kind\":\"experiment\"") != std::string::npos)
            lines.push_back(line);
    return lines;
}

TEST(ResultStoreTest, IngestWritesTheLineALocalRunWouldAndFirstRecordWins)
{
    ExperimentConfig cfg =
        smallConfig("HHMA", MitigationType::kPara, 256, true);

    std::string dir_local = storeDir("ingest_local");
    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir_local, &error)) << error;
        store.prefetch({cfg});
    }
    std::vector<std::string> local = experimentLines(dir_local);
    ASSERT_EQ(local.size(), 1u);

    // The same point computed elsewhere, handed over as its record.
    const ExperimentConfig resolved = resolveExperimentConfig(cfg);
    const ExperimentResult result = runExperiment(resolved);
    std::string dir = storeDir("ingest");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    ASSERT_TRUE(store.ingest(cfg, experimentResultToJson(resolved, result),
                             &error))
        << error;
    EXPECT_EQ(experimentLines(dir), local);
    EXPECT_EQ(store.stats().computed, 0u);

    // A second record for the same key changes nothing.
    ExperimentResult other = result;
    other.weightedSpeedup += 1.0;
    ASSERT_TRUE(store.ingest(cfg, experimentResultToJson(resolved, other),
                             &error))
        << error;
    EXPECT_EQ(experimentLines(dir), local);
    const ExperimentResult *served = store.lookup(cfg);
    ASSERT_NE(served, nullptr);
    expectIdentical(*served, result);

    // A payload that is not a result record is refused, and neither
    // cached nor written.
    ExperimentConfig fresh =
        smallConfig("LLLA", MitigationType::kRfm, 512, false);
    JsonValue garbage = JsonValue::object();
    garbage.set("weighted_speedup", "fast");
    error.clear();
    EXPECT_FALSE(store.ingest(fresh, garbage, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(store.lookup(fresh), nullptr);
    EXPECT_EQ(experimentLines(dir), local);
}

TEST(ResultStoreTest, SecondStoreWriterIsRefused)
{
    std::string dir = storeDir("flock");
    ResultStore first(1);
    std::string error;
    ASSERT_TRUE(first.open(dir, &error)) << error;

    // Same process, second descriptor: flock is per-open-file, so this
    // models a second --store run racing the first.
    ResultStore second(1);
    EXPECT_FALSE(second.open(dir, &error));
    EXPECT_NE(error.find("locked"), std::string::npos) << error;
    EXPECT_FALSE(second.persistent());
}

// ---------------------------------------------------------------------
// Untrusted bytes: damaged lines and payloads, the loader's grammar.
// ---------------------------------------------------------------------

/** Write @p text as the whole results.jsonl of a fresh store @p tag. */
std::string
storeWithFile(const std::string &tag, const std::string &text)
{
    std::string dir = storeDir(tag);
    std::filesystem::create_directories(dir);
    std::ofstream(resultsPath(dir), std::ios::trunc) << text;
    return dir;
}

/** @p text with the value after the first @p prefix replaced by
 *  @p value (a number or literal, up to the next ',', ']' or '}'). */
std::string
withValue(const std::string &text, const std::string &prefix,
          const std::string &value)
{
    std::size_t at = text.find(prefix);
    EXPECT_NE(at, std::string::npos) << prefix;
    at += prefix.size();
    return text.substr(0, at) + value +
           text.substr(text.find_first_of(",]}", at));
}

TEST(ResultStoreTest, DamagedLinesAreSkippedNotFatal)
{
    // The first four lines aborted open() through a panicking accessor:
    // a wrong-typed solo member, a negative count, a negative schema
    // version. A fractional version and a count no u64 holds were read
    // through an inexact cast.
    const std::string v = std::to_string(ResultStore::kSchemaVersion);
    std::string dir = storeWithFile(
        "damaged",
        "{\"v\":" + v + ",\"kind\":\"solo\",\"app\":1,\"insts\":1,"
        "\"ipc\":1}\n"
        "{\"v\":" + v + ",\"kind\":\"solo\",\"app\":\"a\",\"insts\":-1,"
        "\"ipc\":1}\n"
        "{\"v\":" + v + ",\"kind\":\"solo\",\"app\":\"a\",\"insts\":5,"
        "\"ipc\":\"x\"}\n"
        "{\"v\":-" + v + ",\"kind\":\"solo\"}\n"
        "{\"v\":" + v + ".5,\"kind\":\"solo\",\"app\":\"a\",\"insts\":5,"
        "\"ipc\":1}\n"
        "{\"v\":" + v + ",\"kind\":\"solo\",\"app\":\"a\",\"insts\":1e300,"
        "\"ipc\":1}\n");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    EXPECT_EQ(store.stats().skipped, 6u);
    EXPECT_EQ(store.stats().soloLoaded, 0u);
    EXPECT_EQ(store.stats().loaded, 0u);
}

TEST(ResultStoreTest, CountsOutsideU64AreRefusedNotCast)
{
    ExperimentConfig cfg =
        smallConfig("MMLL", MitigationType::kNone, 1024, false);
    const std::string doc =
        experimentResultToJson(cfg, runExperiment(cfg)).dump();
    ExperimentResult out;
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(doc, &parsed));
    ASSERT_TRUE(experimentResultFromJson(parsed, &out));

    const std::pair<const char *, const char *> damage[] = {
        {"\"bins\":[[", "-1"},     // a bin index
        {"\"bins\":[[", "1.5"},    // a fractional bin index
        {"\"retired\":", "-1"},    // a per-core count
        {"\"cycles\":", "1e300"},  // a count no u64 holds
        {"\"cycles\":", "2.5"},
        {"\"num_bins\":", "-4096"},
        {"\"oracle_max_count\":", "18446744073709551616"},
        {"\"preventive_actions\":", "-0.5"},
    };
    for (const auto &[prefix, value] : damage) {
        const std::string bad = withValue(doc, prefix, value);
        ASSERT_TRUE(JsonValue::parse(bad, &parsed)) << prefix;
        EXPECT_FALSE(experimentResultFromJson(parsed, &out))
            << prefix << value;
    }

    // The same damage on disk: the record loads, its lookup misses (and
    // counts as skipped) instead of aborting, and a get() recomputes.
    const std::string key = experimentKey(resolveExperimentConfig(cfg));
    JsonValue rec = JsonValue::object();
    rec.set("v", ResultStore::kSchemaVersion);
    rec.set("kind", "experiment");
    rec.set("key", key);
    rec.set("payload", JsonValue());
    std::string line = rec.dump();
    line.replace(line.find("null"), 4, withValue(doc, "\"retired\":", "-1"));
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(storeWithFile("negative", line + "\n"), &error))
        << error;
    EXPECT_EQ(store.stats().loaded, 1u);
    EXPECT_EQ(store.lookup(cfg), nullptr);
    EXPECT_EQ(store.stats().skipped, 1u);
    expectIdentical(runExperiment(cfg), store.get(cfg));
}

TEST(ResultStoreTest, OpenAcceptsAnyMemberOrderAndWhitespace)
{
    // The loader reads a line with the same grammar as parse(): members
    // in any order, whitespace between tokens, escaped keys, and
    // duplicate members (the last one wins).
    std::string dir = storeDir("member-order");
    ExperimentConfig cfg =
        smallConfig("HHMA", MitigationType::kGraphene, 512, true);
    std::string cold_json;
    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch({cfg});
        cold_json = store.toJson().dump();
    }
    const std::string key = experimentKey(resolveExperimentConfig(cfg));
    const std::string payload =
        experimentResultToJson(resolveExperimentConfig(cfg),
                               runExperiment(cfg))
            .dump();
    const std::string line =
        " {\t\"payload\":{}, \"payload\" : " + payload + " , \"key\":\"" +
        key + "\",\"v\":0,\"kind\" :\"experiment\", \"\\u0076\": " +
        std::to_string(ResultStore::kSchemaVersion) + " }\r";
    ResultStore warm(1);
    std::string error;
    ASSERT_TRUE(warm.open(storeWithFile("member-order", line + "\n"), &error))
        << error;
    EXPECT_EQ(warm.stats().loaded, 1u);
    EXPECT_EQ(warm.stats().skipped, 0u);
    warm.prefetch({cfg});
    EXPECT_EQ(warm.stats().hits, 1u);
    EXPECT_EQ(warm.stats().computed, 0u);
    EXPECT_EQ(warm.toJson().dump(), cold_json);
}

/** What open() must report for a results.jsonl, decoded the slow way:
 *  every line parsed into a tree, as the loader did before it learned
 *  to check lines without one. */
struct ReferenceLoad
{
    std::size_t loaded = 0;
    std::size_t skipped = 0;
    std::size_t soloLoaded = 0;
    std::map<std::string, JsonValue> payloads; ///< First record per key.
};

ReferenceLoad
referenceLoad(const std::string &text)
{
    ReferenceLoad ref;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue rec;
        if (!JsonValue::parse(line, &rec) || !rec.isObject()) {
            bool recovered = false;
            for (std::size_t pos = line.find("{\"v\":", 1);
                 pos != std::string::npos && !recovered;
                 pos = line.find("{\"v\":", pos + 1)) {
                JsonValue tail;
                recovered = JsonValue::parse(line.substr(pos), &tail) &&
                            tail.isObject();
                if (recovered)
                    rec = std::move(tail);
            }
            ++ref.skipped;
            if (!recovered)
                continue;
        }
        const JsonValue *version = rec.find("v");
        const JsonValue *kind = rec.find("kind");
        if (version == nullptr || !version->isU64() ||
            version->asU64() != ResultStore::kSchemaVersion ||
            kind == nullptr || !kind->isString()) {
            ++ref.skipped;
        } else if (kind->asString() == "experiment") {
            const JsonValue *key = rec.find("key");
            const JsonValue *payload = rec.find("payload");
            if (key == nullptr || !key->isString() || payload == nullptr)
                ++ref.skipped;
            else if (ref.payloads.emplace(key->asString(), *payload).second)
                ++ref.loaded;
        } else if (kind->asString() == "solo") {
            const JsonValue *app = rec.find("app");
            const JsonValue *insts = rec.find("insts");
            const JsonValue *ipc = rec.find("ipc");
            if (app == nullptr || !app->isString() || insts == nullptr ||
                !insts->isU64() || ipc == nullptr || !ipc->isNumber())
                ++ref.skipped;
            else
                ++ref.soloLoaded;
        } else {
            ++ref.skipped;
        }
    }
    return ref;
}

/**
 * Seeded mutations of a real multi-record results.jsonl: bit flips,
 * torn tails, torn records fused with the next line, dropped newlines,
 * spliced record starts and duplicated lines. open() must never crash,
 * its counters must equal a reference decode that parses every line
 * into a tree, and every point the reference holds must resolve to the
 * reference's result (or miss when the reference payload is unreadable).
 */
TEST(ResultStoreTest, MutatedStoreFilesLoadLikeAFullParse)
{
    // A horizon no other test uses: a mutated solo line may prime the
    // process-wide solo cache with a wrong IPC for its (app, insts).
    std::vector<ExperimentConfig> grid = {
        smallConfig("HHMA", MitigationType::kGraphene, 512, true),
        smallConfig("LLLA", MitigationType::kPara, 1024, false),
        smallConfig("MMLA", MitigationType::kBlockHammer, 256, true),
    };
    for (ExperimentConfig &cfg : grid)
        cfg.instructions = 2600;
    std::string dir = storeDir("mutation");
    {
        ResultStore store(2);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;
        store.prefetch(grid);
    }
    std::string base;
    {
        std::ifstream in(resultsPath(dir));
        base.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(referenceLoad(base).loaded, grid.size());

    std::mt19937_64 rng(0x70a4e5);
    auto below = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    /** Offsets of @p text's newlines. */
    auto newlines = [](const std::string &text) {
        std::vector<std::size_t> at;
        for (std::size_t i = 0; i < text.size(); ++i)
            if (text[i] == '\n')
                at.push_back(i);
        return at;
    };
    const char *kStarts[] = {"{\"v\":", "{\"v\":2,\"kind\":\"experiment\",",
                             "{\"v\":2,\"kind\":\"solo\",\"app\":\""};

    constexpr int kMutants = 300;
    std::size_t misses = 0;    // Loaded records whose payload is unreadable.
    std::size_t recovered = 0; // Mutants with a skipped line, all loaded.
    for (int c = 0; c < kMutants; ++c) {
        std::string text = base;
        for (std::size_t e = 1 + below(3); e > 0; --e) {
            const std::vector<std::size_t> nl = newlines(text);
            switch (below(6)) {
              case 0: // bit flip
                if (!text.empty())
                    text[below(text.size())] ^=
                        static_cast<char>(1u << below(8));
                break;
              case 1: // torn tail
                text.resize(below(text.size() + 1));
                break;
              case 2: // a torn record fused with the next line
                if (!nl.empty()) {
                    const std::size_t end = nl[below(nl.size())];
                    const std::size_t begin =
                        text.rfind('\n', end ? end - 1 : 0) + 1;
                    const std::size_t cut =
                        begin + below(end > begin ? end - begin : 1);
                    text.erase(cut, end + 1 - cut);
                }
                break;
              case 3: // dropped newline
                if (!nl.empty())
                    text.erase(nl[below(nl.size())], 1);
                break;
              case 4: // spliced record start
                text.insert(below(text.size() + 1), kStarts[below(3)]);
                break;
              default: { // a line repeated elsewhere (first record wins)
                if (nl.size() < 2)
                    break;
                const std::size_t i = below(nl.size() - 1);
                const std::string copy =
                    text.substr(nl[i] + 1, nl[i + 1] - nl[i]);
                text.insert(nl[below(nl.size())] + 1, copy);
                break;
              }
            }
        }

        const ReferenceLoad ref = referenceLoad(text);
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(storeWithFile("mutation", text), &error))
            << error;
        const ResultStoreStats got = store.stats();
        ASSERT_EQ(got.loaded, ref.loaded) << text;
        ASSERT_EQ(got.skipped, ref.skipped) << text;
        ASSERT_EQ(got.soloLoaded, ref.soloLoaded) << text;
        if (ref.skipped > 0 && ref.loaded == grid.size())
            ++recovered;

        for (const ExperimentConfig &cfg : grid) {
            const ExperimentConfig resolved = store.resolve(cfg);
            auto it = ref.payloads.find(experimentKey(resolved));
            ExperimentResult expected;
            const bool readable = it != ref.payloads.end() &&
                                  experimentResultFromJson(it->second,
                                                           &expected);
            if (it != ref.payloads.end() && !readable)
                ++misses;
            const ExperimentResult *result = store.lookup(cfg);
            ASSERT_EQ(result != nullptr, readable) << text;
            if (readable) {
                ASSERT_EQ(experimentResultToJson(resolved, *result).dump(),
                          experimentResultToJson(resolved, expected).dump());
            }
        }
    }
    // Both kinds of damage must be well exercised for the test to mean
    // much: torn lines recovered whole, and loaded-but-unreadable records.
    EXPECT_GT(recovered, 10u);
    EXPECT_GT(misses, 10u);
}

} // namespace
} // namespace bh
