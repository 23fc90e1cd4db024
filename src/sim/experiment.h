/**
 * @file
 * Experiment runner shared by the benchmark harness, the examples, and the
 * integration tests.
 *
 * Wraps System construction for a (mix, mechanism, N_RH, BreakHammer on/
 * off) tuple, caches per-application solo IPCs (the weighted-speedup
 * denominators), and computes the metrics each figure reports: weighted
 * speedup of benign applications, unfairness (max slowdown), preventive
 * action counts, DRAM energy, and latency percentiles. Nothing here
 * reads the environment: a point's horizon is its config (a ResultStore
 * folds in its ConfigDefaults), and the grid shape a figure sweeps is
 * bh_bench's (bench::Context).
 *
 * How a point runs — checkpointing, the dense reference loop, and where
 * freshly simulated solo IPCs go — is a RunContext the caller passes to
 * runExperiment() and soloIpc(). None of it changes a result. The
 * ResultStore owns the context its figures and shards run under.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/mixes.h"
#include "sim/system.h"
#include "stats/json.h"

namespace bh {

/** One experiment point. */
struct ExperimentConfig
{
    MixSpec mix;
    MitigationType mechanism = MitigationType::kNone;
    unsigned nRh = 1024;
    bool breakHammer = false;
    /** window == 0 (the default) selects scaledBreakHammerConfig(). */
    BreakHammerConfig bh = BreakHammerConfig{.window = 0};
    std::uint64_t instructions = 0; ///< 0 = kDefaultInstructions.
    bool oracle = false;
    /** Ablation: reject a throttled thread's secondary misses too. */
    bool bluntThrottle = false;
    std::uint64_t seed = 1;
    /**
     * DRAM scale-out overrides (power-of-two each). 0 = unset: a
     * ResultStore folds in its ConfigDefaults, then
     * resolveExperimentConfig() the DDR5 defaults (1 channel, 2 ranks).
     * Part of experimentKey() only away from the defaults, so legacy
     * single-channel records keep their content addresses.
     */
    unsigned channels = 0;
    unsigned ranks = 0;
    /**
     * Red-team attacker strategy (canonical spec string of
     * sim/redteam.h, e.g. "pat=many,obs=64,bub=64,grp=1,ho=0"); empty =
     * canonical fixed attackers. When set, runExperiment() rewrites the
     * mix's attacker slots into adaptive traces per the strategy. Part
     * of experimentKey() via an `|rt=` suffix, so red-team probes never
     * alias canonical figure records.
     */
    std::string redteam;
};

/** Metrics of one run, alongside the raw result. */
struct ExperimentResult
{
    RunResult raw;
    double weightedSpeedup = 0.0;
    double maxSlowdown = 0.0;
    double energyNj = 0.0;
    std::uint64_t preventiveActions = 0;
};

/** Horizon of a config that leaves it unset (the paper: 100M). */
constexpr std::uint64_t kDefaultInstructions = 100000;

/** Throttling window scaled to the simulated horizon (see .cc). */
BreakHammerConfig scaledBreakHammerConfig(std::uint64_t instructions);

/**
 * Mid-run checkpointing policy for runExperiment(). When enabled, every
 * experiment simulation periodically saves a full System snapshot under
 * @p dir (one content-addressed file per experiment point) and, before
 * simulating from scratch, tries to resume from an existing snapshot —
 * so a killed sweep restarted with the same flags loses at most one
 * checkpoint interval of the point it was in, instead of the whole
 * point. Snapshots are deleted when their run completes. Resume is
 * bit-exact: the completed run's results are byte-identical to an
 * uninterrupted run (CI enforces this). Solo-IPC runs are short and are
 * not checkpointed.
 */
struct CheckpointSpec
{
    std::string dir;              ///< Snapshot directory; empty = off.
    std::uint64_t everyInsts = 0; ///< Cadence in retired instructions.
    Cycle everyCycles = 0;        ///< Cadence in cycles.

    bool
    enabled() const
    {
        return !dir.empty() && (everyInsts > 0 || everyCycles > 0);
    }
};

/**
 * Receives each solo IPC that soloIpc() actually simulates (primed and
 * re-requested values never reach it). It may be called from any
 * prefetch worker thread and must not call back into soloIpc().
 */
using SoloSink = std::function<void(const std::string &app,
                                    std::uint64_t insts, double ipc)>;

/**
 * How one runExperiment() / soloIpc() call runs, passed explicitly. The
 * default context runs uncheckpointed on the event-driven loop. No
 * member changes a result.
 */
struct RunContext
{
    CheckpointSpec checkpoint;
    SoloSink soloSink;
    /** Run System's cycle-by-cycle reference loop (BH_DENSE_TICK). */
    bool denseTick = false;
};

/**
 * Solo IPC of a catalog app (no mitigation, core alone). Memoized per
 * process — the run is a pure function of (app, insts) — so only the
 * first request simulates; that one reports to @p ctx's soloSink.
 */
double soloIpc(const std::string &app_name, std::uint64_t instructions,
               const RunContext &ctx = {});

/**
 * Seed the shared solo-IPC cache with a known value (e.g. loaded from a
 * persistent ResultStore) so soloIpc() returns it without simulating.
 * A value already cached for (app, insts) is left untouched.
 */
void primeSoloIpc(const std::string &app_name, std::uint64_t instructions,
                  double ipc);

/**
 * @p config with its defaulted fields made explicit: instructions == 0
 * resolves to kDefaultInstructions, bh.window == 0 to
 * scaledBreakHammerConfig() at that horizon, and channels/ranks == 0 to
 * the DDR5 organization (1 channel, 2 ranks) — exactly the defaults
 * runExperiment() applies, so running the resolved config is
 * bit-identical to running the original. Persistent caching MUST key
 * the resolved config: the unresolved form aliases every horizon to one
 * content address, and a store consulted at another scale would
 * silently serve results from the wrong horizon.
 */
ExperimentConfig resolveExperimentConfig(const ExperimentConfig &config);

/** Snapshot file of @p config (resolved) inside checkpoint dir @p dir. */
std::string snapshotPath(const std::string &dir,
                         const ExperimentConfig &config);

/** Run one experiment point under @p ctx and compute its metrics. */
ExperimentResult runExperiment(const ExperimentConfig &config,
                               const RunContext &ctx = {});

/**
 * Canonical identity of an experiment point: every field that influences
 * the simulation, rendered as a stable string. Two configs with equal keys
 * produce bit-identical results, so the key doubles as the content
 * address of the ResultStore and the record key of the JSON export.
 */
std::string experimentKey(const ExperimentConfig &config);

/**
 * The (app, instructions) solo-run dependencies of resolved @p configs,
 * deduped in first-use order. Warming these through soloIpc() before a parallel
 * sweep prevents workers from duplicating solo runs.
 */
std::vector<std::pair<std::string, std::uint64_t>>
soloDependencies(const std::vector<ExperimentConfig> &configs);

/**
 * One experiment (config identity + metrics + raw summary) as JSON. This
 * is the durable schema of the persistent ResultStore: it carries the
 * full benign-read-latency histogram (raw bins via stats/json_stats.h),
 * per-core records (IPC, retire/finish, reject stalls), the preventive/
 * demand ACT split, BreakHammer introspection (suspect marks, quota
 * rejections, final per-thread scores and quotas), and the oracle
 * verdict, so a stored record answers every query the figures and
 * examples make without re-simulating.
 */
JsonValue experimentResultToJson(const ExperimentConfig &config,
                                 const ExperimentResult &result);

/**
 * Rebuild an ExperimentResult from the bytes of an
 * experimentResultToJson() document. The bytes are read once, with
 * JsonValue::parse()'s grammar but no tree, straight into the result:
 * one allocation per vector the result owns, plus core names too long
 * for a short string. The round trip is exact: re-serializing the result
 * against the same config reproduces the original document byte for byte
 * (doubles are dumped with 17 significant digits; the histogram
 * round-trips raw bins). It accepts exactly what parsing the text into a
 * tree and reading that would: every required member with its kind,
 * every count a u64 (JsonValue::isU64()), a complete redteam block when
 * there is one, the histogram limits of readHistogram(), the last of
 * duplicate keys, unknown members that parse, and nothing after the
 * object.
 * @return false when @p text is malformed or misses required fields
 *         (e.g. a record written by an older schema), in which case
 *         @p out is untouched.
 */
bool experimentResultFromJson(std::string_view text, ExperimentResult *out);

} // namespace bh
