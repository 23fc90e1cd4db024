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
 * order load, a seeded mutation test holds open() to a full-parse
 * reference decode, and seeded payload mutants hold the byte decoder to
 * the tree decoder it replaced. "Cross-process" is modeled by destroying
 * one store and opening another on the same directory — the disk file
 * is the only state they share.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
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

    ExperimentResult restored;
    ASSERT_TRUE(experimentResultFromJson(first, &restored));
    expectIdentical(direct, restored);

    // Re-serializing the restored result reproduces the document byte
    // for byte — the property that makes warm-store JSON exports
    // identical to cold ones.
    EXPECT_EQ(experimentResultToJson(cfg, restored).dump(2), first);

    // The widened schema carries the full histogram, not just summary
    // percentiles: the parsed histogram answers every query identically.
    EXPECT_TRUE(restored.raw.benignReadLatencyNs ==
                direct.raw.benignReadLatencyNs);
    const JsonValue &lat = doc.get("raw").get("benign_read_latency_ns");
    Histogram h;
    ASSERT_TRUE(histogramFromJson(lat.get("histogram").dump(), &h));
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
    EXPECT_FALSE(experimentResultFromJson(stripped.dump(), &out));
    EXPECT_TRUE(experimentResultFromJson(doc.dump(), &out));
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
    ASSERT_TRUE(experimentResultFromJson(doc, &out));

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
        ASSERT_TRUE(JsonValue::scan(bad)) << prefix;
        EXPECT_FALSE(experimentResultFromJson(bad, &out)) << prefix << value;
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

/** Member @p key of @p obj iff it exists with type @p type, else null. */
const JsonValue *
typedMember(const JsonValue &obj, const char *key, JsonValue::Type type)
{
    if (!obj.isObject())
        return nullptr;
    const JsonValue *member = obj.find(key);
    if (member == nullptr || member->type() != type)
        return nullptr;
    return member;
}

/** Member @p key of @p obj iff it is a number asU64() reads exactly. */
const JsonValue *
u64Member(const JsonValue &obj, const char *key)
{
    const JsonValue *member = typedMember(obj, key, JsonValue::Type::kNumber);
    return member != nullptr && member->isU64() ? member : nullptr;
}

/** The histogram limits a stored record must meet. */
bool
histogramJsonIsWellFormed(const JsonValue &v)
{
    constexpr std::uint64_t kMaxBins = 1u << 20;
    const JsonValue *bin_width =
        typedMember(v, "bin_width", JsonValue::Type::kNumber);
    const JsonValue *num_bins = u64Member(v, "num_bins");
    const JsonValue *bins = typedMember(v, "bins", JsonValue::Type::kArray);
    if (bin_width == nullptr || bin_width->asDouble() <= 0.0 ||
        num_bins == nullptr || num_bins->asU64() > kMaxBins ||
        bins == nullptr ||
        typedMember(v, "sum", JsonValue::Type::kNumber) == nullptr ||
        typedMember(v, "max", JsonValue::Type::kNumber) == nullptr)
        return false;
    for (std::size_t i = 0; i < bins->size(); ++i) {
        const JsonValue &pair = bins->at(i);
        if (!pair.isArray() || pair.size() != 2 || !pair.at(0).isU64() ||
            !pair.at(1).isU64() || pair.at(0).asU64() > num_bins->asU64())
            return false;
    }
    return true;
}

/**
 * The reference decoder of a stored experiment record: the tree decoder
 * the store used before experimentResultFromJson() read bytes. It reads
 * a parse()d tree member by member, so with duplicate keys the last one
 * counts, and the byte decoder must accept and refuse exactly what it
 * does.
 */
bool
referenceFromJson(const JsonValue &v, ExperimentResult *out)
{
    using Type = JsonValue::Type;
    const JsonValue *ws = typedMember(v, "weighted_speedup", Type::kNumber);
    const JsonValue *sd = typedMember(v, "max_slowdown", Type::kNumber);
    const JsonValue *energy = typedMember(v, "energy_nj", Type::kNumber);
    const JsonValue *prev = u64Member(v, "preventive_actions");
    const JsonValue *raw = typedMember(v, "raw", Type::kObject);
    if (!ws || !sd || !energy || !prev || !raw)
        return false;

    const JsonValue *cycles = u64Member(*raw, "cycles");
    const JsonValue *demand = u64Member(*raw, "demand_acts");
    const JsonValue *marks = u64Member(*raw, "suspect_marks");
    const JsonValue *rejections = u64Member(*raw, "quota_rejections");
    const JsonValue *capped = typedMember(*raw, "hit_cycle_cap", Type::kBool);
    const JsonValue *prev_energy =
        typedMember(*raw, "preventive_energy_nj", Type::kNumber);
    const JsonValue *violations = u64Member(*raw, "oracle_violations");
    const JsonValue *max_count = u64Member(*raw, "oracle_max_count");
    const JsonValue *cores = typedMember(*raw, "cores", Type::kArray);
    const JsonValue *bh_scores = typedMember(*raw, "bh_scores", Type::kArray);
    const JsonValue *bh_quotas = typedMember(*raw, "bh_quotas", Type::kArray);
    const JsonValue *latency =
        typedMember(*raw, "benign_read_latency_ns", Type::kObject);
    if (!cycles || !demand || !marks || !rejections || !capped ||
        !prev_energy || !violations || !max_count || !cores || !bh_scores ||
        !bh_quotas || !latency)
        return false;
    const JsonValue *histogram =
        typedMember(*latency, "histogram", Type::kObject);
    if (histogram == nullptr || !histogramJsonIsWellFormed(*histogram))
        return false;
    for (std::size_t i = 0; i < bh_scores->size(); ++i)
        if (!bh_scores->at(i).isNumber())
            return false;
    for (std::size_t i = 0; i < bh_quotas->size(); ++i)
        if (!bh_quotas->at(i).isU64())
            return false;

    ExperimentResult r;
    r.weightedSpeedup = ws->asDouble();
    r.maxSlowdown = sd->asDouble();
    r.energyNj = energy->asDouble();
    r.preventiveActions = prev->asU64();

    if (const JsonValue *redteam = v.find("redteam")) {
        const JsonValue *spec = typedMember(*redteam, "spec", Type::kString);
        const JsonValue *acts =
            typedMember(*redteam, "demand_acts_per_thread", Type::kArray);
        if (!spec || !acts)
            return false;
        for (std::size_t i = 0; i < acts->size(); ++i)
            if (!acts->at(i).isU64())
                return false;
        for (std::size_t i = 0; i < acts->size(); ++i)
            r.raw.demandActsPerThread.push_back(acts->at(i).asU64());
    }

    r.raw.cycles = cycles->asU64();
    r.raw.demandActs = demand->asU64();
    r.raw.suspectMarks = marks->asU64();
    r.raw.quotaRejections = rejections->asU64();
    r.raw.hitCycleCap = capped->asBool();
    r.raw.preventiveEnergyNj = prev_energy->asDouble();
    r.raw.oracleViolations = violations->asU64();
    r.raw.oracleMaxCount = static_cast<std::uint32_t>(max_count->asU64());
    r.raw.energyNj = r.energyNj;
    r.raw.preventiveActions = r.preventiveActions;

    for (std::size_t i = 0; i < cores->size(); ++i) {
        const JsonValue &c = cores->at(i);
        const JsonValue *name = typedMember(c, "name", Type::kString);
        const JsonValue *benign = typedMember(c, "benign", Type::kBool);
        const JsonValue *retired = u64Member(c, "retired");
        const JsonValue *finish = u64Member(c, "finish_cycle");
        const JsonValue *ipc = typedMember(c, "ipc", Type::kNumber);
        const JsonValue *stalls = u64Member(c, "reject_stalls");
        if (!name || !benign || !retired || !finish || !ipc || !stalls)
            return false;
        CoreResult core;
        core.name = name->asString();
        core.benign = benign->asBool();
        core.retired = retired->asU64();
        core.finishCycle = finish->asU64();
        core.ipc = ipc->asDouble();
        core.rejectStalls = stalls->asU64();
        r.raw.cores.push_back(std::move(core));
    }

    for (std::size_t i = 0; i < bh_scores->size(); ++i)
        r.raw.bhScores.push_back(bh_scores->at(i).asDouble());
    for (std::size_t i = 0; i < bh_quotas->size(); ++i)
        r.raw.bhQuotas.push_back(
            static_cast<unsigned>(bh_quotas->at(i).asU64()));

    std::size_t num_bins = histogram->get("num_bins").asU64();
    const JsonValue &bins = histogram->get("bins");
    std::vector<std::uint64_t> raw_bins;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        std::size_t idx = bins.at(i).at(0).asU64();
        if (idx >= raw_bins.size())
            raw_bins.resize(idx + 1, 0);
        raw_bins[idx] = bins.at(i).at(1).asU64();
    }
    r.raw.benignReadLatencyNs = Histogram::fromRaw(
        histogram->get("bin_width").asDouble(), num_bins,
        std::move(raw_bins), histogram->get("sum").asDouble(),
        histogram->get("max").asDouble());

    *out = std::move(r);
    return true;
}

/** referenceFromJson() of @p text's tree; false when it does not parse. */
bool
referenceFromText(const std::string &text, ExperimentResult *out)
{
    JsonValue tree;
    return JsonValue::parse(text, &tree) && referenceFromJson(tree, out);
}

/** What open() must report for a results.jsonl, decoded the slow way:
 *  every line parsed into a tree, as the loader did before it learned
 *  to check lines without one, and every payload decoded from its tree
 *  by referenceFromJson(). */
struct ReferenceLoad
{
    std::size_t loaded = 0;
    std::size_t skipped = 0;
    std::size_t soloLoaded = 0;
    /** First record per key; nullopt when its payload does not decode. */
    std::map<std::string, std::optional<ExperimentResult>> results;
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
            if (key == nullptr || !key->isString() || payload == nullptr) {
                ++ref.skipped;
            } else if (!ref.results.count(key->asString())) {
                ExperimentResult result;
                ref.results[key->asString()] =
                    referenceFromJson(*payload, &result)
                        ? std::optional<ExperimentResult>(std::move(result))
                        : std::nullopt;
                ++ref.loaded;
            }
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
            auto it = ref.results.find(experimentKey(resolved));
            const bool readable =
                it != ref.results.end() && it->second.has_value();
            if (it != ref.results.end() && !readable)
                ++misses;
            const ExperimentResult *result = store.lookup(cfg);
            ASSERT_EQ(result != nullptr, readable) << text;
            if (readable) {
                ASSERT_EQ(experimentResultToJson(resolved, *result).dump(),
                          experimentResultToJson(resolved, *it->second).dump());
            }
        }
    }
    // Both kinds of damage must be well exercised for the test to mean
    // much: torn lines recovered whole, and loaded-but-unreadable records.
    EXPECT_GT(recovered, 10u);
    EXPECT_GT(misses, 10u);
}

/** One object member of a record's text: where its key begins, where
 *  its value begins and where the value ends. */
struct TextMember
{
    std::size_t begin;
    std::size_t value;
    std::size_t end;
};

/** Offset one past the JSON value at @p i (or of the text's end). */
std::size_t
valueEnd(const std::string &text, std::size_t i)
{
    int depth = 0;
    for (; i < text.size(); ++i) {
        const char ch = text[i];
        if (ch == '"') {
            for (++i; i < text.size() && text[i] != '"'; ++i)
                if (text[i] == '\\')
                    ++i;
        } else if (ch == '{' || ch == '[') {
            ++depth;
        } else if (ch == '}' || ch == ']' || ch == ',') {
            if (depth == 0)
                return i;
            if (ch != ',' && --depth == 0)
                return i + 1;
        }
    }
    return i;
}

/** Every object member of @p text, at any depth, in text order. */
std::vector<TextMember>
textMembers(const std::string &text)
{
    std::vector<TextMember> members;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '"')
            continue;
        const std::size_t begin = i;
        for (++i; i < text.size() && text[i] != '"'; ++i)
            if (text[i] == '\\')
                ++i;
        if (i + 1 < text.size() && text[i + 1] == ':')
            members.push_back({begin, i + 2, valueEnd(text, i + 2)});
    }
    return members;
}

/** [begin, end) of every number token of @p text. */
std::vector<std::pair<std::size_t, std::size_t>>
textNumbers(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char ch = text[i];
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
        } else if (ch == '"') {
            in_string = true;
        } else if ((ch == '-' || (ch >= '0' && ch <= '9')) && i > 0 &&
                   std::strchr(":[,", text[i - 1]) != nullptr) {
            std::size_t end = i + 1;
            while (end < text.size() &&
                   std::strchr("0123456789+-.eE", text[end]) != nullptr)
                ++end;
            numbers.emplace_back(i, end);
        }
    }
    return numbers;
}

/** @p text without member @p m (and one comma beside it). */
std::string
withoutMember(std::string text, const TextMember &m)
{
    std::size_t begin = m.begin, end = m.end;
    if (end < text.size() && text[end] == ',')
        ++end;
    else if (begin > 0 && text[begin - 1] == ',')
        --begin;
    return text.erase(begin, end - begin);
}

/** @p text with a copy of member @p m whose value has another kind,
 *  before it (@p first: the original decides) or after it. */
std::string
withWrongTypedCopy(std::string text, const TextMember &m, bool first)
{
    const std::string key = text.substr(m.begin, m.value - m.begin);
    const char kind = text[m.value];
    const std::string wrong = kind == '"'   ? "7"
                              : kind == 't' ? "0"
                              : kind == 'f' ? "null"
                                            : "\"x\"";
    if (first)
        return text.insert(m.begin, key + wrong + ",");
    return text.insert(m.end, "," + key + wrong);
}

/**
 * Seeded payload-level damage to real records of every mechanism, with
 * and without BreakHammer, and of a red-team probe: dropped members,
 * duplicates with a wrong-typed first or last copy, counts no u64 holds,
 * malformed bin pairs, out-of-range histogram geometry, trailing bytes
 * and nesting past the parser's cap. The byte decoder must give the tree
 * decoder's verdict on every case and, when both accept, the same
 * result; a refusal leaves the output untouched. The probe record also
 * has every member dropped and copied wrong-typed in turn, so that the
 * optional redteam block's members are damaged too.
 */
TEST(ResultStoreTest, MutatedPayloadsDecodeLikeTheTreeDecoder)
{
    const char *kPatterns[] = {"HHMA", "LLLA", "MMLL", "HHMM"};
    std::vector<ExperimentConfig> configs;
    for (int m = 0; m <= static_cast<int>(MitigationType::kBlockHammer); ++m)
        for (bool bh_on : {false, true})
            configs.push_back(smallConfig(kPatterns[configs.size() % 4],
                                          static_cast<MitigationType>(m),
                                          1024, bh_on));
    ExperimentConfig probe =
        smallConfig("MMAA", MitigationType::kPara, 1024, true);
    probe.redteam = "pat=many,obs=64,bub=64,grp=1,ho=0";
    configs.push_back(probe);
    std::vector<std::string> records;
    for (ExperimentConfig &cfg : configs) {
        cfg.instructions = 3000;
        cfg = resolveExperimentConfig(cfg);
        records.push_back(
            experimentResultToJson(cfg, runExperiment(cfg)).dump());
    }
    ASSERT_NE(records.back().find("\"demand_acts_per_thread\""),
              std::string::npos);

    std::mt19937_64 rng(0xb17e5);
    auto below = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    /** The value of the last "num_bins" member, or 4096. */
    auto numBins = [](const std::string &text) {
        std::uint64_t bins = 4096;
        for (const TextMember &m : textMembers(text))
            if (text.compare(m.begin, 11, "\"num_bins\":") == 0)
                bins = std::strtoull(text.c_str() + m.value, nullptr, 10);
        return bins;
    };
    /** Start offsets of the pairs inside the first "bins" array. */
    auto binPairs = [](const std::string &text) {
        std::vector<std::size_t> pairs;
        const std::size_t at = text.find("\"bins\":[");
        if (at == std::string::npos)
            return pairs;
        const std::size_t begin = at + 7;
        const std::size_t end = valueEnd(text, begin);
        for (std::size_t i = begin + 1; i < end; ++i)
            if (text[i] == '[')
                pairs.push_back(i);
        return pairs;
    };
    const char *kCounts[] = {"-1", "1.5", "1e300", "18446744073709551616"};
    const char *kTrailing[] = {" ", "\n", "x", "}", "{}", ",0"};

    std::size_t accepted = 0;
    std::size_t refused = 0;
    /** Both decoders' verdicts and results on @p text, a damaged copy of
     *  record @p which. */
    auto expectSameDecode = [&](const std::string &text, std::size_t which) {
        ExperimentResult expected;
        const bool reference = referenceFromText(text, &expected);
        const ExperimentConfig &cfg = configs[which];
        ExperimentResult sentinel;
        sentinel.weightedSpeedup = -42.0;
        sentinel.raw.cores.resize(1);
        ExperimentResult got = sentinel;
        ASSERT_EQ(experimentResultFromJson(text, &got), reference) << text;
        ++(reference ? accepted : refused);
        ASSERT_EQ(experimentResultToJson(cfg, got).dump(),
                  experimentResultToJson(cfg, reference ? expected : sentinel)
                      .dump())
            << text;
    };

    constexpr int kCases = 1000;
    for (int c = 0; c < kCases; ++c) {
        const std::size_t which = below(records.size());
        std::string text = records[which];
        for (std::size_t e = below(3) ? 1 : 2; e > 0; --e) {
            const std::vector<TextMember> members = textMembers(text);
            const std::vector<std::size_t> pairs = binPairs(text);
            switch (below(9)) {
              case 0: // drop a member
                if (!members.empty())
                    text = withoutMember(text, members[below(members.size())]);
                break;
              case 1: // a duplicate with a wrong-typed first or last copy
                if (!members.empty())
                    text = withWrongTypedCopy(
                        text, members[below(members.size())], below(2));
                break;
              case 2: { // a count no u64 holds (or a fraction)
                // Half of the time a member's number, else any number
                // (most are bin indices and counts).
                std::vector<std::pair<std::size_t, std::size_t>> numbers;
                if (below(2)) {
                    for (const TextMember &m : members)
                        if (text[m.value] == '-' ||
                            (text[m.value] >= '0' && text[m.value] <= '9'))
                            numbers.emplace_back(m.value, m.end);
                } else {
                    numbers = textNumbers(text);
                }
                if (numbers.empty())
                    break;
                const auto [begin, end] = numbers[below(numbers.size())];
                text.replace(begin, end - begin, kCounts[below(4)]);
                break;
              }
              case 3: // a bin pair of three elements
                if (!pairs.empty())
                    text.insert(text.find(']', pairs[below(pairs.size())]),
                                ",0");
                break;
              case 4: { // a bin index past num_bins
                if (pairs.empty())
                    break;
                const std::size_t at = pairs[below(pairs.size())] + 1;
                text.replace(at, text.find_first_of(",]", at) - at,
                             std::to_string(numBins(text) + 1));
                break;
              }
              case 5:
                if (text.find("\"num_bins\":") != std::string::npos)
                    text = withValue(text, "\"num_bins\":", "1048577");
                break;
              case 6:
                if (text.find("\"bin_width\":") != std::string::npos)
                    text = withValue(text, "\"bin_width\":", "0");
                break;
              case 7: // trailing bytes
                text += kTrailing[below(6)];
                break;
              default: // nesting past the parser's cap
                text = std::string(300, '[') + text + std::string(300, ']');
                break;
            }
        }

        expectSameDecode(text, which);
        if (HasFatalFailure())
            return;
    }
    const std::size_t probe_at = records.size() - 1;
    for (const TextMember &m : textMembers(records[probe_at])) {
        for (int kind = 0; kind < 3 && !HasFatalFailure(); ++kind)
            expectSameDecode(
                kind == 0 ? withoutMember(records[probe_at], m)
                          : withWrongTypedCopy(records[probe_at], m, kind == 1),
                probe_at);
    }
    EXPECT_GT(accepted, 50u);
    EXPECT_GT(refused, 50u);
}

} // namespace
} // namespace bh
