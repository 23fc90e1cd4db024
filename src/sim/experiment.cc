#include "sim/experiment.h"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/env.h"
#include "common/log.h"
#include "common/snapshot.h"
#include "sim/redteam.h"
#include "sim/result_store.h"
#include "stats/json_stats.h"
#include "stats/metrics.h"

namespace bh {

namespace {

using SoloKey = std::pair<std::string, std::uint64_t>;

std::mutex &
soloMutex()
{
    // bh-audit: skip(global-state) -- guards the solo-IPC memo below
    static std::mutex mutex;
    return mutex;
}

std::map<SoloKey, double> &
soloCache()
{
    // bh-audit: skip(global-state) -- memo of a pure function of (app, insts)
    static std::map<SoloKey, double> cache;
    return cache;
}

} // namespace

std::uint64_t
defaultInstructions()
{
    // The paper simulates 100M instructions per benign core; the default
    // here is scaled down for laptop-speed regeneration of every figure
    // (EXPERIMENTS.md records the scale used). Override with BH_INSTS.
    return envU64("BH_INSTS", 100000);
}

unsigned
mixesPerClass()
{
    return static_cast<unsigned>(
        envU64("BH_MIXES", envFlag("BH_FULL") ? 5 : 1));
}

std::vector<unsigned>
nrhSweep()
{
    if (envFlag("BH_FULL"))
        return {4096, 2048, 1024, 512, 256, 128, 64};
    return {4096, 1024, 64};
}

BreakHammerConfig
scaledBreakHammerConfig(std::uint64_t instructions)
{
    // The paper's 64 ms throttling window and TH_threat = 32 assume
    // 100M-instruction runs. Scale the window with the simulated horizon
    // so several windows fit (training, reset, and quota-restore
    // semantics stay intact), and scale TH_threat by the same ratio so
    // the score a thread must accumulate per window keeps its meaning.
    BreakHammerConfig config;
    Cycle horizon_guess = instructions * 6; // ~IPC 0.3 contended H mixes.
    config.window = std::max<Cycle>(200000, horizon_guess / 5);
    double ratio = static_cast<double>(config.window) /
                   static_cast<double>(msToCycles(64.0));
    config.thThreat = std::max(2.0, 32.0 * ratio);
    return config;
}

double
soloIpc(const std::string &app_name, std::uint64_t instructions,
        const RunContext &ctx)
{
    {
        std::lock_guard<std::mutex> lock(soloMutex());
        auto it = soloCache().find({app_name, instructions});
        if (it != soloCache().end())
            return it->second;
    }

    SystemConfig config;
    config.numCores = 1;
    config.mitigation = MitigationType::kNone;
    std::vector<WorkloadSlot> slots(1);
    slots[0].kind = WorkloadSlot::Kind::kBenign;
    slots[0].appName = app_name;

    System system(config, slots);
    RunResult result = system.run(instructions, instructions * 150);
    double ipc = result.cores[0].ipc;

    // Only the first computation reaches the sink: if another worker won
    // the race, its value is already cached (identical — the run is a
    // pure function of (app, insts)) and already reported.
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(soloMutex());
        first = soloCache()
                    .emplace(SoloKey{app_name, instructions}, ipc)
                    .second;
    }
    if (first && ctx.soloSink)
        ctx.soloSink(app_name, instructions, ipc);
    return ipc;
}

void
primeSoloIpc(const std::string &app_name, std::uint64_t instructions,
             double ipc)
{
    std::lock_guard<std::mutex> lock(soloMutex());
    soloCache().emplace(SoloKey{app_name, instructions}, ipc);
}

ExperimentConfig
resolveExperimentConfig(const ExperimentConfig &config)
{
    ExperimentConfig resolved = config;
    if (resolved.instructions == 0)
        resolved.instructions = defaultInstructions();
    if (resolved.bh.window == 0)
        resolved.bh = scaledBreakHammerConfig(resolved.instructions);
    if (resolved.channels == 0)
        resolved.channels = 1;
    if (resolved.ranks == 0)
        resolved.ranks = 2;
    return resolved;
}

std::string
snapshotPath(const std::string &dir, const ExperimentConfig &config)
{
    std::string key = experimentKey(resolveExperimentConfig(config));
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.snap",
                  static_cast<unsigned long long>(
                      fnv1a64(key.data(), key.size())));
    return dir + "/" + name;
}

namespace {

/** The SystemConfig a resolved ExperimentConfig simulates. */
SystemConfig
systemConfigFor(const ExperimentConfig &cfg)
{
    SystemConfig sys;
    sys.numCores = static_cast<unsigned>(cfg.mix.slots.size());
    sys.spec = DramSpec::ddr5();
    applyTimingSideEffects(cfg.mechanism, cfg.nRh, &sys.spec);
    // Organization overrides, resolved (non-zero) by the caller. Timing
    // is organization-independent, so overriding after the side effects
    // keeps the mechanism-specific tREFI/tRFC edits intact.
    if (cfg.channels)
        sys.spec.org.channels = cfg.channels;
    if (cfg.ranks)
        sys.spec.org.ranks = cfg.ranks;
    sys.mitigation = cfg.mechanism;
    sys.nRh = cfg.nRh;
    sys.breakHammer = cfg.breakHammer;
    sys.bh = cfg.bh;
    sys.enableOracle = cfg.oracle;
    sys.bluntThrottle = cfg.bluntThrottle;
    sys.seed = cfg.seed;
    return sys;
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &config, const RunContext &ctx)
{
    ExperimentConfig cfg = resolveExperimentConfig(config);
    std::uint64_t insts = cfg.instructions;

    // Red-team probes rewrite the mix's attacker slots into adaptive
    // traces before the System is constructed. The rewrite is
    // part of the config identity (the `|rt=` key suffix), so a probe
    // can never be served a canonical fixed-attacker record.
    if (!cfg.redteam.empty()) {
        RedteamStrategy strategy;
        if (!parseRedteamStrategy(cfg.redteam, &strategy))
            BH_FATAL("malformed redteam strategy spec");
        applyRedteamStrategy(strategy, &cfg.mix.slots);
    }

    SystemConfig sys = systemConfigFor(cfg);

    // The cycle cap bounds pathological configurations (e.g., BlockHammer
    // at N_RH = 64); capped runs report progress IPC, which is the right
    // measure for a workload that cannot finish.
    auto system = std::make_unique<System>(sys, cfg.mix.slots);

    const CheckpointSpec &ckpt = ctx.checkpoint;
    std::string snap_path;
    if (ckpt.enabled()) {
        // The identity ties a snapshot to the exact simulation semantics:
        // the experiment content address plus the store schema version,
        // which is bumped whenever results become non-reproducible. A
        // stale snapshot therefore falls back to recompute, exactly like
        // a stale store record.
        snap_path = snapshotPath(ckpt.dir, cfg);
        System::CheckpointConfig cc;
        cc.path = snap_path;
        cc.everyInsts = ckpt.everyInsts;
        cc.everyCycles = ckpt.everyCycles;
        cc.identity = experimentKey(cfg) + "|store_schema=" +
                      std::to_string(ResultStore::kSchemaVersion);
        system->setCheckpoint(cc);
        std::string resume_error;
        if (!system->resumeFromSnapshot(snap_path, &resume_error)) {
            BH_LOG("snapshot %s: %s; computing from scratch",
                   snap_path.c_str(), resume_error.c_str());
            // A failed resume may leave partially loaded state behind;
            // rebuild the System so the cold run starts clean.
            system = std::make_unique<System>(sys, cfg.mix.slots);
            system->setCheckpoint(cc);
        }
    }

    ExperimentResult out;
    out.raw = system->run(insts, insts * 150);
    if (!snap_path.empty()) {
        // Completed: the snapshot is stale. A SIGKILL mid-save can also
        // orphan the atomic-write temp file; sweep it too.
        std::remove(snap_path.c_str());
        std::remove((snap_path + ".tmp").c_str());
    }

    std::vector<double> shared = out.raw.benignIpcs();
    std::vector<double> alone;
    for (const std::string &app : benignApps(cfg.mix))
        alone.push_back(soloIpc(app, insts, ctx));

    out.weightedSpeedup = weightedSpeedup(shared, alone);
    out.maxSlowdown = maxSlowdown(shared, alone);
    out.energyNj = out.raw.energyNj;
    out.preventiveActions = out.raw.preventiveActions;
    return out;
}

std::string
experimentKey(const ExperimentConfig &config)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "mix=%s|mech=%s|nrh=%u|bh=%d|win=%llu|thr=%.17g|out=%.17g|po=%u|"
        "pn=%u|attr=%d|single=%d|insts=%llu|oracle=%d|blunt=%d|seed=%llu",
        config.mix.name.c_str(), mitigationName(config.mechanism),
        config.nRh, config.breakHammer ? 1 : 0,
        static_cast<unsigned long long>(config.bh.window),
        config.bh.thThreat, config.bh.thOutlier, config.bh.pOldSuspect,
        config.bh.pNewSuspect,
        config.bh.attribution == ScoreAttribution::kWinnerTakesAll ? 1 : 0,
        config.bh.singleCounterSet ? 1 : 0,
        static_cast<unsigned long long>(config.instructions),
        config.oracle ? 1 : 0, config.bluntThrottle ? 1 : 0,
        static_cast<unsigned long long>(config.seed));
    std::string key = buf;
    // Suffixes are append-only: only non-default channel/rank counts
    // are spelled out (0 = unresolved default), so single-channel
    // records keep their addresses while multi-channel runs can never
    // alias them.
    bool nondefault_channels = config.channels > 1;
    bool nondefault_ranks = config.ranks != 0 && config.ranks != 2;
    if (nondefault_channels || nondefault_ranks) {
        char obuf[48];
        std::snprintf(obuf, sizeof(obuf), "|ch=%u|rk=%u",
                      config.channels ? config.channels : 1,
                      config.ranks ? config.ranks : 2);
        key += obuf;
    }
    // Red-team probes carry their canonical strategy spec. Append-only
    // like the block above: canonical figure records (empty redteam)
    // keep their addresses, and no probe can ever alias them.
    if (!config.redteam.empty())
        key += "|rt=" + config.redteam;
    return key;
}

std::vector<std::pair<std::string, std::uint64_t>>
soloDependencies(const std::vector<ExperimentConfig> &configs)
{
    std::vector<std::pair<std::string, std::uint64_t>> deps;
    for (const ExperimentConfig &config : configs) {
        std::uint64_t insts =
            config.instructions ? config.instructions
                                : defaultInstructions();
        for (const std::string &app : benignApps(config.mix)) {
            std::pair<std::string, std::uint64_t> dep{app, insts};
            bool seen = false;
            for (const auto &existing : deps)
                if (existing == dep) {
                    seen = true;
                    break;
                }
            if (!seen)
                deps.push_back(std::move(dep));
        }
    }
    return deps;
}

JsonValue
experimentResultToJson(const ExperimentConfig &config,
                       const ExperimentResult &result)
{
    JsonValue out = JsonValue::object();
    out.set("key", experimentKey(config));
    out.set("mix", config.mix.name);
    out.set("mechanism", mitigationName(config.mechanism));
    out.set("nrh", config.nRh);
    out.set("breakhammer", config.breakHammer);

    out.set("weighted_speedup", result.weightedSpeedup);
    out.set("max_slowdown", result.maxSlowdown);
    out.set("energy_nj", result.energyNj);
    out.set("preventive_actions", result.preventiveActions);

    // Present only for red-team probes: the strategy spec and the
    // per-thread demand-ACT split the fuzzer's evasion fitness divides
    // by, so a warm store re-ranks strategies without re-simulating.
    if (!config.redteam.empty()) {
        JsonValue rt = JsonValue::object();
        rt.set("spec", config.redteam);
        JsonValue acts = JsonValue::array();
        for (std::uint64_t a : result.raw.demandActsPerThread)
            acts.push(a);
        rt.set("demand_acts_per_thread", std::move(acts));
        out.set("redteam", std::move(rt));
    }

    JsonValue raw = JsonValue::object();
    raw.set("cycles", result.raw.cycles);
    raw.set("demand_acts", result.raw.demandActs);
    raw.set("suspect_marks", result.raw.suspectMarks);
    raw.set("quota_rejections", result.raw.quotaRejections);
    raw.set("hit_cycle_cap", result.raw.hitCycleCap);
    raw.set("preventive_energy_nj", result.raw.preventiveEnergyNj);
    raw.set("oracle_violations", result.raw.oracleViolations);
    raw.set("oracle_max_count", result.raw.oracleMaxCount);

    JsonValue cores = JsonValue::array();
    for (const CoreResult &c : result.raw.cores) {
        JsonValue core = JsonValue::object();
        core.set("name", c.name);
        core.set("benign", c.benign);
        core.set("retired", c.retired);
        core.set("finish_cycle", c.finishCycle);
        core.set("ipc", c.ipc);
        core.set("reject_stalls", c.rejectStalls);
        cores.push(std::move(core));
    }
    raw.set("cores", std::move(cores));

    JsonValue bh_scores = JsonValue::array();
    for (double s : result.raw.bhScores)
        bh_scores.push(s);
    raw.set("bh_scores", std::move(bh_scores));
    JsonValue bh_quotas = JsonValue::array();
    for (unsigned q : result.raw.bhQuotas)
        bh_quotas.push(q);
    raw.set("bh_quotas", std::move(bh_quotas));

    const Histogram &lat = result.raw.benignReadLatencyNs;
    JsonValue latency = JsonValue::object();
    latency.set("count", lat.count());
    latency.set("mean", lat.mean());
    latency.set("p50", lat.percentile(50));
    latency.set("p90", lat.percentile(90));
    latency.set("p99", lat.percentile(99));
    latency.set("p999", lat.percentile(99.9));
    latency.set("max", lat.max());
    latency.set("histogram", histogramToJson(lat));
    raw.set("benign_read_latency_ns", std::move(latency));
    out.set("raw", std::move(raw));
    return out;
}

namespace {

/** Member @p key of @p obj iff it exists with type @p type, else null.
 *  This is the store's corruption gate: every access in
 *  experimentResultFromJson goes through it so a wrong-typed or
 *  truncated payload reads as a cache miss, never a crash. */
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

/** Member @p key of @p obj iff it is a number asU64() reads exactly
 *  (finite, integral, in [0, 2^64)): the gate every count goes through,
 *  so a negative or huge count reads as a cache miss, not a crash or an
 *  undefined cast. */
const JsonValue *
u64Member(const JsonValue &obj, const char *key)
{
    const JsonValue *member = typedMember(obj, key, JsonValue::Type::kNumber);
    return member != nullptr && member->isU64() ? member : nullptr;
}

/** Validate the histogramToJson() shape before the (assert-happy)
 *  histogramFromJson() parser touches it. */
bool
histogramJsonIsWellFormed(const JsonValue &v)
{
    // A generous ceiling on the bin vector a record may ask us to
    // allocate (the simulator's histograms use 4096 bins): a corrupt
    // num_bins must read as a cache miss, not throw bad_alloc.
    constexpr std::uint64_t kMaxBins = 1u << 20;
    const JsonValue *bin_width =
        typedMember(v, "bin_width", JsonValue::Type::kNumber);
    const JsonValue *num_bins = u64Member(v, "num_bins");
    const JsonValue *bins =
        typedMember(v, "bins", JsonValue::Type::kArray);
    if (bin_width == nullptr || bin_width->asDouble() <= 0.0 ||
        num_bins == nullptr || num_bins->asU64() > kMaxBins ||
        bins == nullptr ||
        typedMember(v, "sum", JsonValue::Type::kNumber) == nullptr ||
        typedMember(v, "max", JsonValue::Type::kNumber) == nullptr)
        return false;
    for (std::size_t i = 0; i < bins->size(); ++i) {
        const JsonValue &pair = bins->at(i);
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.at(0).isU64() || !pair.at(1).isU64() ||
            pair.at(0).asU64() > num_bins->asU64())
            return false;
    }
    return true;
}

} // namespace

bool
experimentResultFromJson(const JsonValue &v, ExperimentResult *out)
{
    // Everything is checked for presence AND type before use: a record
    // from an older layout — or a same-version record damaged on disk —
    // reports false and is treated as a cache miss, per the ResultStore
    // "recompute, never misread" contract.
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
    const JsonValue *capped =
        typedMember(*raw, "hit_cycle_cap", Type::kBool);
    const JsonValue *prev_energy =
        typedMember(*raw, "preventive_energy_nj", Type::kNumber);
    const JsonValue *violations = u64Member(*raw, "oracle_violations");
    const JsonValue *max_count = u64Member(*raw, "oracle_max_count");
    const JsonValue *cores = typedMember(*raw, "cores", Type::kArray);
    const JsonValue *bh_scores =
        typedMember(*raw, "bh_scores", Type::kArray);
    const JsonValue *bh_quotas =
        typedMember(*raw, "bh_quotas", Type::kArray);
    const JsonValue *latency =
        typedMember(*raw, "benign_read_latency_ns", Type::kObject);
    if (!cycles || !demand || !marks || !rejections || !capped ||
        !prev_energy || !violations || !max_count || !cores ||
        !bh_scores || !bh_quotas || !latency)
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

    // The redteam block is optional (only probe records carry it), but
    // when present it must be complete: a truncated one is corruption.
    if (const JsonValue *redteam = v.find("redteam")) {
        const JsonValue *spec =
            typedMember(*redteam, "spec", Type::kString);
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
    // The top-level metrics mirror their raw counterparts (runExperiment
    // copies them out); restore both so direct RunResult readers agree.
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

    r.raw.benignReadLatencyNs = histogramFromJson(*histogram);

    *out = std::move(r);
    return true;
}

} // namespace bh
