#include "sim/experiment.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/env.h"
#include "common/log.h"
#include "common/snapshot.h"
#include "sim/parallel_for.h"
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
    if (!resolved.sample.enabled())
        resolved.sample = SamplingSpec{}; // Partial specs mean "exact".
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

/**
 * Two-sided 95% Student-t critical value for @p df degrees of freedom
 * (small-sample window counts need the fat tails; beyond 30 the normal
 * 1.96 is within half a percent).
 */
double
tCritical95(std::uint64_t df)
{
    static const double table[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return table[df - 1];
    return 1.96;
}

/** Mean and 95% CI half-width of one per-window metric series. */
SampledMetric
summarizeWindows(const std::vector<double> &xs)
{
    SampledMetric m;
    if (xs.empty())
        return m;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    m.mean = sum / static_cast<double>(xs.size());
    if (xs.size() < 2)
        return m;
    double ss = 0.0;
    for (double x : xs) {
        double d = x - m.mean;
        ss += d * d;
    }
    double var = ss / static_cast<double>(xs.size() - 1);
    m.ci95 = tCritical95(xs.size() - 1) *
             std::sqrt(var / static_cast<double>(xs.size()));
    return m;
}

/**
 * The interval-sampled estimator behind runExperiment(): one ancestor
 * System runs the detailed warm-up, then walks the rest of the horizon
 * functionally ONCE, dropping an in-memory snapshot blob at each
 * window's warm-start — total fast-forward work is O(horizon), where
 * re-fast-forwarding every window from the shared warm-up snapshot
 * would be O(nwin * horizon). The blobs then fan out to nwin
 * independent detailed windows (optionally across ctx.samplingJobs
 * worker threads); window k's work — restore blob k, detailed re-warm
 * W, detailed measure M — is a pure function of k, so results are
 * byte-identical for every job count. Headline metrics anchor on the
 * exactly-measured warm-up and extend it at the steady-state window
 * rates; window spread becomes the 95% CIs in `sampling`.
 */
ExperimentResult
runSampledExperiment(const ExperimentConfig &cfg, const RunContext &ctx)
{
    const SamplingSpec &sp = cfg.sample;
    const std::uint64_t insts = cfg.instructions;
    const std::uint64_t stride =
        sp.fastForward + sp.warmup + sp.measure;
    const std::uint64_t nwin = (insts - sp.warmup) / stride;
    BH_ASSERT(nwin > 0, "caller checked a window fits the horizon");

    SystemConfig sys = systemConfigFor(cfg);

    // One shared ancestor: the detailed warm-up, then a single serial
    // functional pass over the horizon. Each window's warm-start state
    // is captured as an in-memory snapshot blob along the way; the
    // ancestor itself never runs the detailed phases (the workers fork
    // those from the blobs), so between two snapshots it fast-forwards
    // a full stride.
    System ancestor(sys, cfg.mix.slots);
    RunResult warm_res =
        ancestor.run(sp.warmup, sp.warmup * 150 + 1000000);
    std::vector<std::string> blobs(nwin);
    for (std::uint64_t k = 0; k < nwin; ++k) {
        ancestor.fastForward(k == 0 ? sp.fastForward : stride);
        blobs[k] = ancestor.snapshotBlob();
    }

    // Solo denominators, resolved before the fan-out so the window
    // workers only ever read the cache.
    std::vector<double> alone;
    for (const std::string &app : benignApps(cfg.mix))
        alone.push_back(soloIpc(app, insts, ctx));

    struct WindowOutcome
    {
        std::vector<double> coreIpcs; ///< All cores, benign and attacker.
        std::vector<double> coreRetired;
        std::vector<double> coreRejectStalls;
        double ws = 0.0;
        double maxsd = 0.0;
        double preventive = 0.0;
        double demand = 0.0;
        double quotaRej = 0.0;
        double suspect = 0.0;
        double energy = 0.0;
        double preventiveEnergy = 0.0;
        double cycles = 0.0;
        double p99 = 0.0;
        Histogram hist{2.0, 4096};
        std::vector<double> bhScores;
        std::vector<unsigned> bhQuotas;
        std::vector<std::string> names;
        std::vector<bool> benign;
        bool capped = false;
        bool valid = false;
    };
    std::vector<WindowOutcome> wins(nwin);

    auto runWindow = [&](System &sim, std::uint64_t k) {
        std::string err;
        bool restored = sim.restoreSnapshotBlob(blobs[k], &err);
        BH_ASSERT(restored, "own snapshot blob must restore");
        (void)restored;
        Cycle phase_cap = std::max<Cycle>(
            (sp.warmup + sp.measure) * 150, 1000000);
        RunResult w = sim.runDelta(sp.warmup, phase_cap);
        RunResult m = sim.runDelta(sp.measure, phase_cap);

        WindowOutcome &out = wins[k];
        out.capped = w.hitCycleCap || m.hitCycleCap;
        double span = static_cast<double>(
            m.cycles > w.cycles ? m.cycles - w.cycles : 1);
        out.cycles = span;

        std::vector<double> benign_ipcs;
        for (std::size_t i = 0; i < m.cores.size(); ++i) {
            double retired_delta =
                static_cast<double>(m.cores[i].retired) -
                static_cast<double>(w.cores[i].retired);
            double ipc;
            if (m.cores[i].benign && m.cores[i].finishCycle > w.cycles) {
                // The measured phase ran [w.cycles+1, finishCycle].
                ipc = static_cast<double>(sp.measure) /
                      static_cast<double>(m.cores[i].finishCycle -
                                          w.cycles);
            } else {
                // Capped window: progress rate over the phase span.
                ipc = retired_delta / span;
            }
            out.coreIpcs.push_back(ipc);
            out.coreRetired.push_back(retired_delta);
            out.coreRejectStalls.push_back(
                static_cast<double>(m.cores[i].rejectStalls) -
                static_cast<double>(w.cores[i].rejectStalls));
            out.names.push_back(m.cores[i].name);
            out.benign.push_back(m.cores[i].benign);
            if (m.cores[i].benign)
                benign_ipcs.push_back(ipc);
        }

        // Weighted speedup / max slowdown of this window (inline: a
        // capped window can report a zero IPC, which the metrics-layer
        // helpers assert against).
        BH_ASSERT(benign_ipcs.size() == alone.size(),
                  "solo denominators must match benign slots");
        for (std::size_t i = 0; i < benign_ipcs.size(); ++i) {
            double a = alone[i] > 0.0 ? alone[i] : 1.0;
            out.ws += benign_ipcs[i] / a;
            double sd = a / std::max(benign_ipcs[i], 1e-12);
            out.maxsd = std::max(out.maxsd, sd);
        }

        out.preventive = static_cast<double>(m.preventiveActions) -
                         static_cast<double>(w.preventiveActions);
        out.demand = static_cast<double>(m.demandActs) -
                     static_cast<double>(w.demandActs);
        out.quotaRej = static_cast<double>(m.quotaRejections) -
                       static_cast<double>(w.quotaRejections);
        out.suspect = static_cast<double>(m.suspectMarks) -
                      static_cast<double>(w.suspectMarks);
        out.energy = m.energyNj - w.energyNj;
        out.preventiveEnergy =
            m.preventiveEnergyNj - w.preventiveEnergyNj;

        // This window's latency distribution: the cumulative histograms
        // differenced bin by bin.
        const std::vector<std::uint64_t> &mb =
            m.benignReadLatencyNs.rawBins();
        const std::vector<std::uint64_t> &wb =
            w.benignReadLatencyNs.rawBins();
        std::vector<std::uint64_t> diff(mb.size(), 0);
        for (std::size_t i = 0; i < mb.size(); ++i)
            diff[i] = mb[i] - wb[i];
        out.hist = Histogram::fromRaw(
            m.benignReadLatencyNs.binWidth(), std::move(diff),
            m.benignReadLatencyNs.sum() - w.benignReadLatencyNs.sum(),
            m.benignReadLatencyNs.max());
        out.p99 = out.hist.percentile(99);

        out.bhScores = m.bhScores;
        out.bhQuotas = m.bhQuotas;
        out.valid = true;
    };

    // Each worker drives ONE System and restores successive blobs into
    // it: a snapshot carries the complete mutable state (the checkpoint
    // tests enforce bit-exact resume into a fresh System), so window k's
    // outcome is a pure function of blobs[k] no matter which worker —
    // or how warm a System — runs it. Windows are striped, not stolen:
    // they cost roughly the same, and striping keeps the per-worker
    // System without any queue bookkeeping. Worker 0 recycles the
    // ancestor (its FF chain is done; the restore overwrites all state),
    // sparing one System construction on every sampled point.
    const unsigned jobs = std::max(1u, ctx.samplingJobs);
    const unsigned workers = static_cast<unsigned>(
        std::min<std::uint64_t>(jobs, nwin));
    parallelFor(workers, workers, [&](std::size_t wk) {
        std::unique_ptr<System> local;
        if (wk != 0)
            local = std::make_unique<System>(sys, cfg.mix.slots);
        System &sim = wk == 0 ? ancestor : *local;
        for (std::uint64_t k = wk; k < nwin; k += workers)
            runWindow(sim, k);
    });

    // Aggregate in window-index order — never completion order — so the
    // result is a pure function of the config.
    std::vector<double> wss, sds, prevs, p99s;
    double prev_sum = 0, demand_sum = 0, quota_sum = 0, suspect_sum = 0;
    double energy_sum = 0, prev_energy_sum = 0;
    std::vector<double> stalls_sum, ipc_sum;
    Histogram merged{2.0, 4096};
    bool any_capped = false;
    for (const WindowOutcome &win : wins) {
        BH_ASSERT(win.valid, "every sampling window must complete");
        wss.push_back(win.ws);
        sds.push_back(win.maxsd);
        prevs.push_back(win.preventive);
        p99s.push_back(win.p99);
        prev_sum += win.preventive;
        demand_sum += win.demand;
        quota_sum += win.quotaRej;
        suspect_sum += win.suspect;
        energy_sum += win.energy;
        prev_energy_sum += win.preventiveEnergy;
        if (stalls_sum.empty()) {
            stalls_sum.resize(win.coreRetired.size(), 0.0);
            ipc_sum.resize(win.coreRetired.size(), 0.0);
        }
        for (std::size_t i = 0; i < win.coreRetired.size(); ++i) {
            stalls_sum[i] += win.coreRejectStalls[i];
            ipc_sum[i] += win.coreIpcs[i];
        }
        merged.merge(win.hist);
        any_capped = any_capped || win.capped;
    }

    ExperimentResult out;
    out.sampling.enabled = true;
    out.sampling.warmup = sp.warmup;
    out.sampling.measure = sp.measure;
    out.sampling.fastForward = sp.fastForward;
    out.sampling.windows = nwin;
    out.sampling.weightedSpeedup = summarizeWindows(wss);
    out.sampling.maxSlowdown = summarizeWindows(sds);
    out.sampling.preventiveActions = summarizeWindows(prevs);
    out.sampling.p99LatencyNs = summarizeWindows(p99s);

    // Headline metrics anchor on the ancestor's exactly-measured warm-up
    // and extend it at the steady-state window rates. A pure window mean
    // would stamp the steady state across the whole horizon and miss the
    // cold-start transient that exact runs include (empty caches, idle
    // row trackers), which biases WS high and ACT counts low. The
    // `sampling` block above intentionally stays a pure per-window
    // statistic, so its mean is the steady-state value, not the
    // headline estimate.
    const double nwin_d = static_cast<double>(nwin);
    const double tail_insts = static_cast<double>(insts - sp.warmup);
    const double tail_scale =
        tail_insts / static_cast<double>(sp.measure);
    auto extrapolate = [&](double warm_exact, double window_sum) {
        return warm_exact + window_sum / nwin_d * tail_scale;
    };

    const std::size_t ncores = wins.back().names.size();
    BH_ASSERT(warm_res.cores.size() == ncores,
              "warm-up cores must match window cores");

    // Per-core completion estimate: the warm-up finish cycle is exact;
    // the remaining (insts - W) instructions proceed at the mean
    // detailed-window IPC.
    std::vector<double> est_cycles(ncores, 0.0);
    double max_benign_cycles = 1.0;
    for (std::size_t i = 0; i < ncores; ++i) {
        double warm_finish =
            warm_res.cores[i].finishCycle > 0
                ? static_cast<double>(warm_res.cores[i].finishCycle)
                : static_cast<double>(warm_res.cycles);
        double mean_ipc = std::max(ipc_sum[i] / nwin_d, 1e-12);
        est_cycles[i] = warm_finish + tail_insts / mean_ipc;
        if (wins.back().benign[i])
            max_benign_cycles =
                std::max(max_benign_cycles, est_cycles[i]);
    }

    out.energyNj = extrapolate(warm_res.energyNj, energy_sum);
    out.preventiveActions = static_cast<std::uint64_t>(std::llround(
        extrapolate(static_cast<double>(warm_res.preventiveActions),
                    prev_sum)));

    out.raw.cycles =
        static_cast<Cycle>(std::llround(max_benign_cycles));
    out.raw.energyNj = out.energyNj;
    out.raw.preventiveEnergyNj =
        extrapolate(warm_res.preventiveEnergyNj, prev_energy_sum);
    out.raw.preventiveActions = out.preventiveActions;
    out.raw.demandActs = static_cast<std::uint64_t>(std::llround(
        extrapolate(static_cast<double>(warm_res.demandActs),
                    demand_sum)));
    out.raw.quotaRejections = static_cast<std::uint64_t>(std::llround(
        extrapolate(static_cast<double>(warm_res.quotaRejections),
                    quota_sum)));
    out.raw.suspectMarks = static_cast<std::uint64_t>(std::llround(
        extrapolate(static_cast<double>(warm_res.suspectMarks),
                    suspect_sum)));
    out.raw.hitCycleCap = any_capped;
    out.raw.benignReadLatencyNs = merged;
    out.raw.bhScores = wins.back().bhScores;
    out.raw.bhQuotas = wins.back().bhQuotas;

    double ws = 0.0, maxsd = 0.0;
    std::size_t bi = 0;
    for (std::size_t i = 0; i < ncores; ++i) {
        CoreResult cr;
        cr.name = wins.back().names[i];
        cr.benign = wins.back().benign[i];
        if (cr.benign) {
            double ipc = static_cast<double>(insts) / est_cycles[i];
            double a =
                bi < alone.size() && alone[bi] > 0.0 ? alone[bi] : 1.0;
            ws += ipc / a;
            maxsd = std::max(maxsd, a / std::max(ipc, 1e-12));
            ++bi;
            cr.ipc = ipc;
            cr.retired = insts;
            cr.finishCycle =
                static_cast<Cycle>(std::llround(est_cycles[i]));
        } else {
            // The attacker runs until the slowest benign core finishes;
            // extend its warm-up progress at the mean window rate.
            double rate = std::max(ipc_sum[i] / nwin_d, 0.0);
            double retired =
                static_cast<double>(warm_res.cores[i].retired) +
                rate * std::max(max_benign_cycles -
                                    static_cast<double>(warm_res.cycles),
                                0.0);
            cr.retired = static_cast<std::uint64_t>(
                std::llround(std::max(retired, 0.0)));
            cr.ipc = retired / max_benign_cycles;
            cr.finishCycle = 0;
        }
        cr.rejectStalls = static_cast<std::uint64_t>(std::llround(
            extrapolate(
                static_cast<double>(warm_res.cores[i].rejectStalls),
                stalls_sum[i])));
        out.raw.cores.push_back(std::move(cr));
    }
    out.weightedSpeedup = ws;
    out.maxSlowdown = maxsd;
    return out;
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &config, const RunContext &ctx)
{
    ExperimentConfig cfg = resolveExperimentConfig(config);
    std::uint64_t insts = cfg.instructions;

    // Red-team probes rewrite the mix's attacker slots into adaptive
    // traces before either run path constructs a System. The rewrite is
    // part of the config identity (the `|rt=` key suffix), so a probe
    // can never be served a canonical fixed-attacker record.
    if (!cfg.redteam.empty()) {
        RedteamStrategy strategy;
        if (!parseRedteamStrategy(cfg.redteam, &strategy))
            BH_FATAL("malformed redteam strategy spec");
        applyRedteamStrategy(strategy, &cfg.mix.slots);
    }

    if (cfg.sample.enabled()) {
        std::uint64_t stride =
            cfg.sample.fastForward + cfg.sample.warmup + cfg.sample.measure;
        bool fits = insts > cfg.sample.warmup &&
                    (insts - cfg.sample.warmup) / stride > 0;
        if (cfg.oracle) {
            // The oracle audits every activation; a fast-forwarded
            // interval has no exact activation stream to audit, so
            // oracle points always run exact.
            BH_LOG("sampling disabled for oracle point %s",
                   cfg.mix.name.c_str());
        } else if (!fits) {
            BH_LOG("sampling spec %llu/%llu/%llu has no window within "
                   "%llu insts; running exact",
                   static_cast<unsigned long long>(cfg.sample.warmup),
                   static_cast<unsigned long long>(cfg.sample.measure),
                   static_cast<unsigned long long>(cfg.sample.fastForward),
                   static_cast<unsigned long long>(insts));
        } else {
            return runSampledExperiment(cfg, ctx);
        }
    }

    SystemConfig sys = systemConfigFor(cfg);

    // The cycle cap bounds pathological configurations (e.g., BlockHammer
    // at N_RH = 64); capped runs report progress IPC, which is the right
    // measure for a workload that cannot finish.
    auto system = std::make_unique<System>(sys, cfg.mix.slots);

    const CheckpointSpec &ckpt = ctx.checkpoint;
    const ProgressHook &hook = ctx.progress;
    System::CheckpointConfig cc;
    std::string snap_path;
    if (ckpt.enabled()) {
        // The identity ties a snapshot to the exact simulation semantics:
        // the experiment content address plus the store schema version,
        // which is bumped whenever results become non-reproducible. A
        // stale snapshot therefore falls back to recompute, exactly like
        // a stale store record.
        snap_path = snapshotPath(ckpt.dir, cfg);
        cc.path = snap_path;
        cc.everyInsts = ckpt.everyInsts;
        cc.everyCycles = ckpt.everyCycles;
        cc.identity = experimentKey(cfg) + "|store_schema=" +
                      std::to_string(ResultStore::kSchemaVersion);
    }
    if (hook.enabled()) {
        // The heartbeat rides the checkpoint cadence machinery but is
        // armed independently: snapshots and progress each work alone.
        cc.progressEveryInsts = hook.everyInsts;
        cc.onProgress = [fn = hook.fn, cfg,
                         insts](std::uint64_t retired) {
            fn(cfg, retired, insts);
        };
    }
    if (ckpt.enabled() || hook.enabled())
        system->setCheckpoint(cc);
    if (ckpt.enabled()) {
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
    // Appended only when sampling is on: every pre-sampling key (and
    // every exact run's key) stays byte-identical, so existing store
    // records keep their content addresses while sampled results can
    // never alias an exact record of the same point.
    if (config.sample.enabled()) {
        char sbuf[80];
        std::snprintf(
            sbuf, sizeof(sbuf), "|sample=%llu/%llu/%llu",
            static_cast<unsigned long long>(config.sample.warmup),
            static_cast<unsigned long long>(config.sample.measure),
            static_cast<unsigned long long>(config.sample.fastForward));
        key += sbuf;
    }
    // Same append-only rule for the organization: only non-default
    // channel/rank counts are spelled out (0 = unresolved default), so
    // single-channel records keep their addresses while multi-channel
    // runs can never alias them.
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
    // like the blocks above: canonical figure records (empty redteam)
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

    // Present only for interval-sampled runs: the window parameters and
    // mean ± 95% CI for every sampled headline metric.
    if (result.sampling.enabled) {
        auto metric = [](const SampledMetric &m) {
            JsonValue v = JsonValue::object();
            v.set("mean", m.mean);
            v.set("ci95", m.ci95);
            return v;
        };
        JsonValue s = JsonValue::object();
        s.set("warmup", result.sampling.warmup);
        s.set("measure", result.sampling.measure);
        s.set("fast_forward", result.sampling.fastForward);
        s.set("windows", result.sampling.windows);
        s.set("weighted_speedup", metric(result.sampling.weightedSpeedup));
        s.set("max_slowdown", metric(result.sampling.maxSlowdown));
        s.set("preventive_actions",
              metric(result.sampling.preventiveActions));
        s.set("p99_latency_ns", metric(result.sampling.p99LatencyNs));
        out.set("sampling", std::move(s));
    }

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
    const JsonValue *num_bins =
        typedMember(v, "num_bins", JsonValue::Type::kNumber);
    const JsonValue *bins =
        typedMember(v, "bins", JsonValue::Type::kArray);
    if (bin_width == nullptr || bin_width->asDouble() <= 0.0 ||
        num_bins == nullptr || num_bins->asDouble() < 0.0 ||
        num_bins->asU64() > kMaxBins || bins == nullptr ||
        typedMember(v, "sum", JsonValue::Type::kNumber) == nullptr ||
        typedMember(v, "max", JsonValue::Type::kNumber) == nullptr)
        return false;
    for (std::size_t i = 0; i < bins->size(); ++i) {
        const JsonValue &pair = bins->at(i);
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.at(0).isNumber() || !pair.at(1).isNumber() ||
            pair.at(0).asU64() > num_bins->asU64())
            return false;
    }
    return true;
}

/** Parse a {"mean": x, "ci95": y} sampled-metric object. */
bool
sampledMetricFromJson(const JsonValue &v, SampledMetric *out)
{
    const JsonValue *mean =
        typedMember(v, "mean", JsonValue::Type::kNumber);
    const JsonValue *ci = typedMember(v, "ci95", JsonValue::Type::kNumber);
    if (mean == nullptr || ci == nullptr)
        return false;
    out->mean = mean->asDouble();
    out->ci95 = ci->asDouble();
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
    const JsonValue *prev =
        typedMember(v, "preventive_actions", Type::kNumber);
    const JsonValue *raw = typedMember(v, "raw", Type::kObject);
    if (!ws || !sd || !energy || !prev || !raw)
        return false;

    const JsonValue *cycles = typedMember(*raw, "cycles", Type::kNumber);
    const JsonValue *demand =
        typedMember(*raw, "demand_acts", Type::kNumber);
    const JsonValue *marks =
        typedMember(*raw, "suspect_marks", Type::kNumber);
    const JsonValue *rejections =
        typedMember(*raw, "quota_rejections", Type::kNumber);
    const JsonValue *capped =
        typedMember(*raw, "hit_cycle_cap", Type::kBool);
    const JsonValue *prev_energy =
        typedMember(*raw, "preventive_energy_nj", Type::kNumber);
    const JsonValue *violations =
        typedMember(*raw, "oracle_violations", Type::kNumber);
    const JsonValue *max_count =
        typedMember(*raw, "oracle_max_count", Type::kNumber);
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
        if (!bh_quotas->at(i).isNumber())
            return false;

    ExperimentResult r;
    r.weightedSpeedup = ws->asDouble();
    r.maxSlowdown = sd->asDouble();
    r.energyNj = energy->asDouble();
    r.preventiveActions = prev->asU64();

    // The sampling block is optional (exact records lack it), but when
    // present it must be complete — a truncated one is corruption.
    if (const JsonValue *sampling = v.find("sampling")) {
        const JsonValue *warmup =
            typedMember(*sampling, "warmup", Type::kNumber);
        const JsonValue *measure =
            typedMember(*sampling, "measure", Type::kNumber);
        const JsonValue *ff =
            typedMember(*sampling, "fast_forward", Type::kNumber);
        const JsonValue *windows =
            typedMember(*sampling, "windows", Type::kNumber);
        const JsonValue *sws =
            typedMember(*sampling, "weighted_speedup", Type::kObject);
        const JsonValue *ssd =
            typedMember(*sampling, "max_slowdown", Type::kObject);
        const JsonValue *sprev =
            typedMember(*sampling, "preventive_actions", Type::kObject);
        const JsonValue *sp99 =
            typedMember(*sampling, "p99_latency_ns", Type::kObject);
        if (!warmup || !measure || !ff || !windows || !sws || !ssd ||
            !sprev || !sp99)
            return false;
        r.sampling.enabled = true;
        r.sampling.warmup = warmup->asU64();
        r.sampling.measure = measure->asU64();
        r.sampling.fastForward = ff->asU64();
        r.sampling.windows = windows->asU64();
        if (!sampledMetricFromJson(*sws, &r.sampling.weightedSpeedup) ||
            !sampledMetricFromJson(*ssd, &r.sampling.maxSlowdown) ||
            !sampledMetricFromJson(*sprev,
                                   &r.sampling.preventiveActions) ||
            !sampledMetricFromJson(*sp99, &r.sampling.p99LatencyNs))
            return false;
    }

    // The redteam block is likewise optional-but-complete (only probe
    // records carry it).
    if (const JsonValue *redteam = v.find("redteam")) {
        const JsonValue *spec =
            typedMember(*redteam, "spec", Type::kString);
        const JsonValue *acts =
            typedMember(*redteam, "demand_acts_per_thread", Type::kArray);
        if (!spec || !acts)
            return false;
        for (std::size_t i = 0; i < acts->size(); ++i)
            if (!acts->at(i).isNumber())
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
        const JsonValue *retired = typedMember(c, "retired", Type::kNumber);
        const JsonValue *finish =
            typedMember(c, "finish_cycle", Type::kNumber);
        const JsonValue *ipc = typedMember(c, "ipc", Type::kNumber);
        const JsonValue *stalls =
            typedMember(c, "reject_stalls", Type::kNumber);
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
