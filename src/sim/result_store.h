/**
 * @file
 * Persistent, content-addressed experiment result store.
 *
 * Every experiment point is identified by experimentKey() — a stable
 * string over every field that influences the simulation — and the
 * simulator is deterministic, so a result computed once is valid forever
 * (for a given schema version) in any process on any machine. The
 * ResultStore exploits that: it is the memoizing cache the bench figures
 * share (the role the in-memory ExperimentPool used to play), optionally
 * backed by an append-only JSONL file so repeated `bh_bench` invocations
 * reuse points across processes.
 *
 * Disk layout (one directory per store):
 *
 *   <dir>/results.jsonl — one record per line:
 *     {"v":N,"kind":"experiment","key":"<experimentKey>","payload":{...}}
 *     {"v":N,"kind":"solo","app":"<name>","insts":I,"ipc":X}
 *
 * The payload is experimentResultToJson() output, which round-trips
 * exactly, so a warm run re-serializes byte-identical JSON without
 * simulating anything. open() checks each line with JsonValue::scan(),
 * which applies parse()'s grammar without building a tree: members may
 * come in any order, and every member but the payload ("v", "kind",
 * "key", or the solo fields) is decoded. An experiment payload's bytes
 * are kept verbatim, and only when its point is requested does
 * experimentResultFromJson() read them, straight into a result with no
 * JSON tree in between. Every count read from disk ("v", "insts", and
 * every count in a payload) passes JsonValue::isU64(), so a negative,
 * fractional or huge value reads as a skipped line or a miss, never an
 * abort. Records whose "v" differs from kSchemaVersion are skipped at
 * load (a schema change triggers recompute, never corruption), as are
 * torn or malformed lines. Appends write whole lines with a single
 * O_APPEND-style write, so two stores can be merged by concatenating
 * their results.jsonl files; duplicate keys are benign (first record
 * wins — deterministic simulation makes them identical).
 *
 * Sharding: setShard(i, n) makes prefetch() compute only the points
 * whose content address hashes to shard i of n (1-based), so a grid can
 * be split across machines — each shard writes its own store, and the
 * shards' files are merged by concatenation. Because every run is seeded
 * from its config alone, a sharded grid is bit-identical to an unsharded
 * one.
 *
 * The store also owns how its points run: the ConfigDefaults it folds
 * into every config it resolves (the CLI's BH_INSTS, --channels and
 * --ranks) and the RunContext its simulations run under (checkpointing,
 * the dense reference loop). Solo-IPC runs
 * (the weighted-speedup denominators) persist through the same file: open()
 * primes the shared solo cache from "solo" records and points the
 * context's solo sink at an append of each freshly computed solo IPC.
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "stats/json.h"

namespace bh {

/**
 * Scale defaults a ResultStore folds into every config that leaves the
 * field unset (bh_bench's BH_INSTS and its --channels and --ranks
 * flags). Solo-IPC baselines deliberately stay on the default
 * single-channel organization: weighted speedup compares against the
 * same denominator across the channel-count axis.
 */
struct ConfigDefaults
{
    std::uint64_t instructions = 0; ///< 0 = kDefaultInstructions.
    unsigned channels = 0; ///< 0 = the DDR5 default (1 channel).
    unsigned ranks = 0;    ///< 0 = the DDR5 default (2 ranks).
};

/** Counters describing how a store session resolved its requests. */
struct ResultStoreStats
{
    std::size_t loaded = 0;      ///< Records parsed from disk at open().
    std::size_t skipped = 0;     ///< Disk records ignored (version/corrupt).
    std::size_t hits = 0;        ///< Requests served from a disk record.
    std::size_t computed = 0;    ///< Requests that ran a simulation.
    std::size_t shardSkipped = 0; ///< Prefetch points owned by other shards.
    std::size_t soloLoaded = 0;  ///< Solo IPCs primed from disk.
    std::size_t soloComputed = 0; ///< Solo IPCs simulated and appended.
};

/** Content-addressed experiment cache with optional JSONL persistence. */
class ResultStore
{
  public:
    /**
     * Store format version. Bump when experimentResultToJson()'s schema
     * or experimentKey()'s layout changes incompatibly — or when a
     * simulation-semantics change makes old records non-reproducible;
     * records written under any other version are recomputed, not
     * misread.
     *
     * v2: BlockHammer's epoch state rolls at exact boundaries
     * (IMitigation::advanceTo) instead of at scheduler probe times, so
     * BlockHammer-point records written by v1 no longer match what the
     * simulator computes.
     * v3: the memory controller stores its write-drain mode only when a
     * demand command issues, so a checkpoint's saved drain flag means
     * something else; the bump retires v2 snapshots through the
     * checkpoint identity, which embeds this version.
     */
    static constexpr std::uint64_t kSchemaVersion = 3;

    /** @param threads Worker threads for prefetch() grids. */
    explicit ResultStore(unsigned threads = 1);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Attach @p dir (created if absent): load its results.jsonl, prime
     * the solo-IPC cache from it, and append future misses to it. The
     * backing file is guarded by an advisory exclusive flock() for the
     * lifetime of the store — a second live writer (another --store run
     * on the same directory) would interleave appends and break the
     * single-writer invariant, so it fails fast here instead.
     * @return false (with @p error set) when the directory cannot be
     *         created, the file cannot be opened for append, or another
     *         process holds the store.
     */
    bool open(const std::string &dir, std::string *error);

    /** Whether a directory is attached (misses persist). */
    bool persistent() const { return fd >= 0; }

    /** Fold @p d into every config this store resolves from now on. */
    void setDefaults(const ConfigDefaults &d) { defaults = d; }

    /** Checkpoint every simulation this store runs per @p spec. */
    void setCheckpoint(const CheckpointSpec &spec)
    {
        context.checkpoint = spec;
    }

    /** Run every simulation on the dense reference loop. */
    void setDenseTick(bool dense) { context.denseTick = dense; }

    /**
     * @p config with this store's ConfigDefaults folded into its unset
     * fields, then resolveExperimentConfig(): the content address every
     * store method keys by (lookup(), get(), prefetch() and ingest()
     * all resolve through it).
     */
    ExperimentConfig resolve(const ExperimentConfig &config) const;

    /**
     * Restrict prefetch() to shard @p index of @p count (1-based): only
     * points with shardOf(key, count) == index are computed; the rest
     * are skipped (unless already on disk, which still resolves). get()
     * is unaffected — an explicit point request always computes.
     */
    void setShard(unsigned index, unsigned count);

    /** Owning shard of @p key among @p count shards (1-based; FNV-1a). */
    static unsigned shardOf(const std::string &key, unsigned count);

    /**
     * Resolve every config: disk hits are parsed into the cache, the
     * rest (minus other shards' points) simulate on the store's threads
     * — their solo-IPC denominators first, so no two workers duplicate
     * one, then the grid, streaming each finished record to disk.
     */
    void prefetch(const std::vector<ExperimentConfig> &configs);

    /**
     * Cached result of @p config; resolves from disk or computes inline
     * (and persists) when absent.
     */
    const ExperimentResult &get(const ExperimentConfig &config);

    /**
     * Like get(), but never computes: resolves from the cache or a disk
     * record, or returns nullptr. benchmark/bh_perf.cc uses this to
     * serve warm points and to time the store's lookup path.
     */
    const ExperimentResult *lookup(const ExperimentConfig &config);

    /**
     * Ingest an externally computed record (experimentResultToJson()
     * output for @p config): decode its dump() bytes as a disk record
     * is decoded, cache it, and append it to the backing file in the
     * canonical serialization, exactly as if this process had simulated
     * the point. A key already resolved is left
     * untouched (first record wins, like concatenated shard files).
     * benchmark/bh_perf.cc stores the points it simulates on its traced
     * path through this.
     * @return false (with @p error set) when @p payload does not parse
     *         as a result record.
     */
    bool ingest(const ExperimentConfig &config, const JsonValue &payload,
                std::string *error);

    /** Number of distinct points resolved (hit or computed) so far. */
    std::size_t size() const;

    /** Session counters (loads, hits, simulations, appends). */
    ResultStoreStats stats() const;

    /**
     * Every resolved point as a JSON array sorted by content address —
     * bit-identical across job counts, shard layouts, and warm/cold
     * runs.
     */
    JsonValue toJson() const;

  private:
    struct Entry
    {
        ExperimentConfig config;
        ExperimentResult result;
    };

    /** Load results.jsonl (missing file is an empty store). */
    void loadFile(const std::string &path);

    /** Append one whole line with a single write() (thread-safe). */
    void appendLine(const std::string &line);

    void appendExperiment(const ExperimentConfig &config,
                          const ExperimentResult &result);

    /**
     * Move a disk payload into the cache if one exists for @p key.
     * Requires @p lock held; returns the entry or nullptr.
     */
    const Entry *resolveFromDisk(const std::string &key,
                                 const ExperimentConfig &config);

    mutable std::mutex mutex;
    std::map<std::string, Entry> cache;
    /** Loaded but not-yet-requested records: key -> payload bytes as
     *  stored, decoded lazily by resolveFromDisk(). */
    std::map<std::string, std::string> diskPayloads;
    ResultStoreStats counters;
    int fd = -1;
    bool writeFailed = false;
    unsigned threads;
    ConfigDefaults defaults;
    RunContext context;
    unsigned shardIndex = 0; ///< 0 = unsharded.
    unsigned shardCount = 0;
};

} // namespace bh
