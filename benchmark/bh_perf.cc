/**
 * @file
 * bh_perf: the benchmark driver behind benchmark/run.py.
 *
 * It generates a workload's experiment points from a seed and runs them
 * through the simulator's public API one after another: a closed loop
 * with one client, so each point is issued when the previous one is
 * done. Modes (the first argument):
 *
 *   sweep    one cold pass over a workload's points: a fresh persistent
 *            ResultStore, every point simulated and appended, then the
 *            JSON export of the whole store;
 *   setup    a pass's set-up only (expand the grid, open the store), then
 *            exit; run.py times several of these per run;
 *   prepare  simulate the union of the cold workloads into a store on
 *            one thread per usable CPU; untimed, it builds warm-export's
 *            input and the golden digests;
 *   export   warm-export's timed loop: open the prepared store, look up
 *            every point, export the JSON, repeated for
 *            kExportChunkSeconds.
 *
 * With --trace=FILE, sweep and export record a span around each public
 * call they make and write the spans as Chrome trace-event JSON. A traced
 * sweep does not call runExperiment(); it calls each layer in turn
 * (resolveExperimentConfig, System construction and run, the speedup
 * metrics, experimentResultToJson, ResultStore::ingest) so that each
 * gets its own span, and it wraps the controllers' callbacks and
 * BreakHammer's observer hooks to count and time them. Its record
 * digests must equal the untraced ones; that equality is what shows the
 * copied config mapping below is faithful.
 *
 * The last line of stdout is one JSON object, which run.py reads. Host
 * times are reported per point (or per export pass) so that run.py can
 * keep each one's fastest pass; aggregation happens there.
 */
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/snapshot.h"
#include "mitigation/factory.h"
#include "sim/experiment.h"
#include "sim/mixes.h"
#include "sim/result_store.h"
#include "sim/sweep.h"
#include "sim/system.h"
#include "stats/histogram.h"
#include "stats/json.h"
#include "stats/metrics.h"

namespace {

using namespace bh;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** CLOCK_MONOTONIC nanoseconds as a decimal string (run.py's clock). */
std::string
monotonicNs(Clock::time_point tp)
{
    return std::to_string(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
}

// ------------------------------------------------------------ workloads

/** A cold sweep workload: its grid shape and per-point horizon. */
struct Workload
{
    const char *name;
    bool attack;         ///< Fig 18 grid (attack mixes) or Fig 2 grid.
    unsigned channels;
    std::uint64_t insts; ///< Instructions per benign core.
};

// Horizons are calibrated so one pass takes about 3 s on a 4-core x86-64
// box; run.py repeats passes for --seconds.
constexpr Workload kColdWorkloads[] = {
    {"benign-mitigation", false, 1, 40000},
    {"benign-mitigation-4ch", false, 4, 30000},
    {"attack-throttle", true, 1, 16000},
};

/** Reads the union of every cold workload's records from a store. */
constexpr const char *kWarmWorkload = "warm-export";

/**
 * How long one export process runs timed passes. run.py times set-up
 * processes between export processes, so this is short against a run.
 */
constexpr double kExportChunkSeconds = 2.0;

constexpr unsigned kMixesPerClass = 2;

/**
 * makeMix() rotates through 7 high-, 6 medium- and 6 low-intensity apps
 * and 3 attacker shapes, so indices repeat their mixes with period 42.
 */
constexpr std::uint64_t kMixIndexPeriod = 42;

const std::vector<unsigned> kNrhSweep = {4096, 1024, 64};

std::uint64_t
splitmix64(std::uint64_t *state)
{
    std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** kMixesPerClass distinct mix indices per class, drawn from @p seed. */
std::vector<MixSpec>
seededMixes(const std::vector<std::string> &patterns, std::uint64_t seed)
{
    std::uint64_t state = seed;
    std::vector<MixSpec> mixes;
    for (const std::string &pattern : patterns) {
        std::set<unsigned> picked;
        while (picked.size() < kMixesPerClass)
            picked.insert(
                static_cast<unsigned>(splitmix64(&state) % kMixIndexPeriod));
        for (unsigned index : picked)
            mixes.push_back(makeMix(pattern, index));
    }
    return mixes;
}

/** The resolved, deduplicated points of one cold workload. */
std::vector<ExperimentConfig>
coldConfigs(const Workload &w, std::uint64_t seed, std::uint64_t insts)
{
    SweepSpec spec(w.name);
    if (w.attack) {
        std::vector<MixSpec> mixes = seededMixes(attackMixPatterns(), seed);
        SweepSpec blockhammer;
        blockhammer.mixes(mixes).nRhValues(kNrhSweep).mechanism(
            MitigationType::kBlockHammer);
        spec.mixes(mixes)
            .withBaselines()
            .nRhValues(kNrhSweep)
            .mechanisms(pairedMitigations())
            .breakHammer(true)
            .merge(blockhammer);
    } else {
        spec.mixes(seededMixes(benignMixPatterns(), seed))
            .withBaselines()
            .nRhValues(kNrhSweep)
            .mechanisms({MitigationType::kHydra, MitigationType::kRfm,
                         MitigationType::kPara, MitigationType::kAqua});
    }
    std::vector<ExperimentConfig> configs = spec.expand();
    for (ExperimentConfig &c : configs) {
        c.instructions = insts ? insts : w.insts;
        c.seed = seed;
        c.channels = w.channels;
    }
    return expandWorkUnits(configs);
}

/**
 * The points of workload @p name; warm-export reads the union of the
 * cold workloads. Empty when the name is unknown.
 */
std::vector<ExperimentConfig>
workloadConfigs(const std::string &name, std::uint64_t seed,
                std::uint64_t insts)
{
    std::vector<ExperimentConfig> out;
    for (const Workload &w : kColdWorkloads) {
        if (name != kWarmWorkload && name != w.name)
            continue;
        std::vector<ExperimentConfig> part = coldConfigs(w, seed, insts);
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

/**
 * The SystemConfig a resolved ExperimentConfig simulates: a copy of the
 * private systemConfigFor() mapping in sim/experiment.cc, so the traced
 * path can time System construction apart from runExperiment(). Record
 * digests equal to the untraced path's show the copy is faithful.
 */
SystemConfig
systemConfigFor(const ExperimentConfig &cfg)
{
    SystemConfig sys;
    sys.numCores = static_cast<unsigned>(cfg.mix.slots.size());
    sys.spec = DramSpec::ddr5();
    applyTimingSideEffects(cfg.mechanism, cfg.nRh, &sys.spec);
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

// -------------------------------------------------------------- tracing

/** In-memory span recorder, written out as Chrome trace events. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int parent; ///< Index of the enclosing span; -1 at top level.
        int point;  ///< Point (sweep) or pass (export) index, or -1.
        const char *mech;
        Clock::time_point start;
        Clock::time_point end;

        double
        seconds() const
        {
            return std::chrono::duration<double>(end - start).count();
        }
    };

    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    int
    begin(const char *name, int point, const char *mech)
    {
        int parent = open_.empty() ? -1 : open_.back();
        Clock::time_point now = Clock::now();
        spans_.push_back(Span{name, parent, point, mech, now, now});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
        open_.pop_back();
    }

    /** Share of the time since the origin that no top-level span covers. */
    double
    unattributedFrac() const
    {
        double covered = 0.0;
        for (const Span &s : spans_)
            if (s.parent < 0)
                covered += s.seconds();
        return 1.0 - covered / secondsSince(origin_);
    }

    /**
     * Span seconds summed by name: {"process": {name: s}, "points":
     * [{name: s}, ...]} with one entry per point (or pass) index below
     * @p points.
     */
    JsonValue
    summary(std::size_t points) const
    {
        std::map<std::string, double> process;
        std::vector<std::map<std::string, double>> per_point(points);
        for (const Span &s : spans_) {
            if (s.point < 0)
                process[s.name] += s.seconds();
            else
                per_point[static_cast<std::size_t>(s.point)][s.name] +=
                    s.seconds();
        }
        auto object = [](const std::map<std::string, double> &m) {
            JsonValue o = JsonValue::object();
            for (const auto &[name, seconds] : m)
                o.set(name, seconds);
            return o;
        };
        JsonValue list = JsonValue::array();
        for (const auto &m : per_point)
            list.push(object(m));
        JsonValue out = JsonValue::object();
        out.set("process", object(process));
        out.set("points", std::move(list));
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("{\"traceEvents\":[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double ts = std::chrono::duration<double, std::micro>(
                            s.start - origin_)
                            .count();
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%zu,\"parent\":%d,\"point\":%d,"
                         "\"mech\":\"%s\"}}\n",
                         i ? "," : "", s.name, ts, s.seconds() * 1e6, i,
                         s.parent, s.point, s.mech ? s.mech : "");
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when @p tracer is null (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int point = -1,
               const char *mech = nullptr)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, point, mech) : -1)
    {}

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** Counts the traced sweep takes at layer boundaries. */
struct LayerCounters
{
    std::uint64_t observeCalls = 0;
    double observeSeconds = 0.0;
    std::uint64_t demandActs = 0; ///< Seen by the onDemandAct wrappers.
    std::uint64_t readsServed = 0;
    Histogram readLatencyCycles{1.0, 16384};
    std::uint64_t hits = 0;
    std::uint64_t computed = 0;
    std::uint64_t soloRuns = 0;
};

/** Forwards BreakHammer's action stream, counting and timing each call. */
class TimedObserver : public IActionObserver
{
  public:
    TimedObserver(IActionObserver *inner, LayerCounters *counters)
        : inner_(inner), counters_(counters)
    {}

    void
    onDemandActivate(ThreadId thread, unsigned flat_bank, Cycle now) override
    {
        Clock::time_point t0 = Clock::now();
        inner_->onDemandActivate(thread, flat_bank, now);
        account(t0);
    }

    void
    onPreventiveAction(double weight, Cycle now) override
    {
        Clock::time_point t0 = Clock::now();
        inner_->onPreventiveAction(weight, now);
        account(t0);
    }

    void
    onDirectScore(ThreadId thread, double amount, Cycle now) override
    {
        Clock::time_point t0 = Clock::now();
        inner_->onDirectScore(thread, amount, now);
        account(t0);
    }

  private:
    void
    account(Clock::time_point t0)
    {
        ++counters_->observeCalls;
        counters_->observeSeconds += secondsSince(t0);
    }

    IActionObserver *inner_;
    LayerCounters *counters_;
};

// ------------------------------------------------------------- checking

std::string
digestOf(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(text.data(), text.size())));
    return buf;
}

/** FNV-1a-64 of each exported record's dump, keyed by experiment key. */
JsonValue
recordDigests(const JsonValue &records)
{
    JsonValue out = JsonValue::object();
    for (std::size_t i = 0; i < records.size(); ++i)
        out.set(records.at(i).get("key").asString(),
                digestOf(records.at(i).dump()));
    return out;
}

/** Simulated totals over a set of records; fixed for a given seed. */
struct ModelTotals
{
    double retiredInsts = 0;
    double rejectStallCycles = 0;
    double demandActs = 0;
    double preventiveActions = 0;
    double suspectMarks = 0;
    double quotaRejections = 0;
    double preventiveEnergyNj = 0;
    double energyNj = 0;
    double simCycles = 0;
    double cappedPoints = 0;

    void
    add(const ExperimentResult &r)
    {
        for (const CoreResult &c : r.raw.cores) {
            retiredInsts += static_cast<double>(c.retired);
            rejectStallCycles += static_cast<double>(c.rejectStalls);
        }
        demandActs += static_cast<double>(r.raw.demandActs);
        preventiveActions += static_cast<double>(r.raw.preventiveActions);
        suspectMarks += static_cast<double>(r.raw.suspectMarks);
        quotaRejections += static_cast<double>(r.raw.quotaRejections);
        preventiveEnergyNj += r.raw.preventiveEnergyNj;
        energyNj += r.raw.energyNj;
        simCycles += static_cast<double>(r.raw.cycles);
        cappedPoints += r.raw.hitCycleCap ? 1.0 : 0.0;
    }

    void
    emit(JsonValue *layers) const
    {
        layers->set("core.retired_insts", retiredInsts);
        layers->set("core.reject_stall_cycles", rejectStallCycles);
        layers->set("mem.demand_acts", demandActs);
        layers->set("mitigation.preventive_actions", preventiveActions);
        layers->set("breakhammer.suspect_marks", suspectMarks);
        layers->set("breakhammer.quota_rejections", quotaRejections);
        layers->set("dram.preventive_energy_frac",
                    energyNj > 0 ? preventiveEnergyNj / energyNj : 0.0);
        layers->set("sim.system.sim_cycles", simCycles);
        layers->set("sim.system.capped_points", cappedPoints);
    }
};

bool
resultIsFinite(const ExperimentResult &r)
{
    bool ok = std::isfinite(r.weightedSpeedup) &&
              std::isfinite(r.maxSlowdown) && std::isfinite(r.energyNj);
    for (const CoreResult &c : r.raw.cores)
        ok = ok && std::isfinite(c.ipc);
    return ok;
}

/**
 * Look up every point in @p store: record what is missing or non-finite
 * in @p failures (key -> reason) and sum the simulated totals of the
 * rest; @p cycles gets each point's simulated cycles when non-null.
 */
ModelTotals
checkPoints(ResultStore &store, const std::vector<ExperimentConfig> &configs,
            JsonValue *failures, JsonValue *cycles = nullptr)
{
    ModelTotals totals;
    for (const ExperimentConfig &cfg : configs) {
        const ExperimentResult *r = store.lookup(cfg);
        if (r == nullptr)
            failures->set(experimentKey(cfg), "missing");
        else if (!resultIsFinite(*r))
            failures->set(experimentKey(cfg), "non-finite metric");
        else
            totals.add(*r);
        if (cycles != nullptr)
            cycles->push(r ? r->raw.cycles : 0);
    }
    return totals;
}

JsonValue
numberArray(const std::vector<double> &xs)
{
    JsonValue out = JsonValue::array();
    for (double x : xs)
        out.push(x);
    return out;
}

// -------------------------------------------------------------- options

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t insts = 0; ///< 0 = each workload's own horizon.
    std::string store;
    std::string trace;       ///< Chrome trace output; empty = untraced.
};

bool
parseOptions(int argc, char **argv, Options *opt)
{
    if (argc < 2)
        return false;
    opt->mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            return false;
        std::string key = arg.substr(2, eq - 2);
        std::string value = arg.substr(eq + 1);
        std::uint64_t *number = key == "seed"    ? &opt->seed
                                : key == "insts" ? &opt->insts
                                                 : nullptr;
        if (number != nullptr) {
            if (!parseU64Strict(value.c_str(), number))
                return false;
        } else if (key == "workload") {
            opt->workload = value;
        } else if (key == "store") {
            opt->store = value;
        } else if (key == "trace") {
            opt->trace = value;
        } else {
            return false;
        }
    }
    bool warm = opt->workload == kWarmWorkload;
    if (opt->mode == "prepare")
        return !opt->store.empty();
    if (opt->mode == "export")
        return warm && !opt->store.empty();
    if (opt->mode == "setup")
        return warm || !opt->store.empty();
    return opt->mode == "sweep" && !warm && !opt->store.empty();
}

/** Print @p out as the last stdout line and write the trace, if any. */
int
finish(const JsonValue &out, const Tracer *t, const std::string &path)
{
    if (t != nullptr && !t->write(path)) {
        std::fprintf(stderr, "bh_perf: cannot write %s\n", path.c_str());
        return 2;
    }
    std::printf("%s\n", out.dump().c_str());
    return std::fflush(stdout) == 0 ? 0 : 2;
}

// ---------------------------------------------------------------- modes

/** One point on the traced path; the result is ingested into @p store. */
void
tracedPoint(const ExperimentConfig &config, int point, ResultStore &store,
            Tracer *t, LayerCounters *counters,
            std::set<std::pair<std::string, std::uint64_t>> *solos,
            std::vector<double> *observe_seconds)
{
    const char *mech = mitigationName(config.mechanism);
    ScopedSpan whole(t, "point", point, mech);

    ExperimentConfig cfg;
    {
        ScopedSpan s(t, "experiment.resolve", point, mech);
        cfg = resolveExperimentConfig(config);
    }
    {
        ScopedSpan s(t, "store.lookup", point, mech);
        if (store.lookup(cfg) != nullptr) {
            ++counters->hits;
            return;
        }
    }
    ++counters->computed;

    // Declared first so that it outlives the System that points at it.
    std::unique_ptr<TimedObserver> observer;
    std::unique_ptr<System> system;
    {
        ScopedSpan s(t, "system.build", point, mech);
        system = std::make_unique<System>(systemConfigFor(cfg),
                                          cfg.mix.slots);
        if (BreakHammer *bh = system->breakHammer())
            observer = std::make_unique<TimedObserver>(bh, counters);
        for (unsigned ch = 0; ch < system->numChannels(); ++ch) {
            MemoryController &mc = system->controller(ch);
            if (observer)
                mc.setObserver(observer.get());
            mc.onDemandAct = [inner = mc.onDemandAct,
                              acts = &counters->demandActs](
                                 unsigned bank, unsigned row, ThreadId thread,
                                 Cycle now) {
                ++*acts;
                inner(bank, row, thread, now);
            };
            mc.onReadComplete =
                [inner = mc.onReadComplete,
                 hist = &counters->readLatencyCycles](const Request &req,
                                                       Cycle done) {
                    hist->record(static_cast<double>(done - req.enqueueCycle));
                    inner(req, done);
                };
        }
    }

    ExperimentResult out;
    double observed_before = counters->observeSeconds;
    {
        ScopedSpan s(t, "system.run", point, mech);
        out.raw = system->run(cfg.instructions, cfg.instructions * 150);
    }
    (*observe_seconds)[static_cast<std::size_t>(point)] =
        counters->observeSeconds - observed_before;
    for (unsigned ch = 0; ch < system->numChannels(); ++ch)
        counters->readsServed += system->controller(ch).readsServed();

    // soloIpc() caches per process, so only an app's first use simulates.
    std::vector<double> alone;
    for (const std::string &app : benignApps(cfg.mix)) {
        bool first = solos->insert({app, cfg.instructions}).second;
        ScopedSpan s(first ? t : nullptr, "experiment.solo", point, mech);
        counters->soloRuns += first;
        alone.push_back(soloIpc(app, cfg.instructions));
    }
    {
        ScopedSpan s(t, "experiment.metrics", point, mech);
        std::vector<double> shared = out.raw.benignIpcs();
        out.weightedSpeedup = weightedSpeedup(shared, alone);
        out.maxSlowdown = maxSlowdown(shared, alone);
        out.energyNj = out.raw.energyNj;
        out.preventiveActions = out.raw.preventiveActions;
    }
    JsonValue record;
    {
        ScopedSpan s(t, "stats.record_json", point, mech);
        record = experimentResultToJson(cfg, out);
    }
    {
        ScopedSpan s(t, "store.ingest", point, mech);
        std::string error;
        if (!store.ingest(cfg, record, &error))
            std::fprintf(stderr, "bh_perf: %s\n", error.c_str());
    }
    ScopedSpan s(t, "system.destroy", point, mech);
    system.reset();
}

/** sweep and setup modes. */
int
runSweep(const Options &opt, Clock::time_point t_main)
{
    std::unique_ptr<Tracer> tracer;
    if (!opt.trace.empty())
        tracer = std::make_unique<Tracer>(t_main);
    Tracer *t = tracer.get();

    std::vector<ExperimentConfig> configs;
    {
        ScopedSpan s(t, "sweep.expand");
        configs = workloadConfigs(opt.workload, opt.seed, opt.insts);
    }
    if (configs.empty()) {
        std::fprintf(stderr, "bh_perf: unknown workload %s\n",
                     opt.workload.c_str());
        return 2;
    }
    auto store = std::make_unique<ResultStore>(1);
    if (opt.workload != kWarmWorkload) {
        ScopedSpan s(t, "store.open");
        std::string error;
        if (!store->open(opt.store, &error)) {
            std::fprintf(stderr, "bh_perf: %s\n", error.c_str());
            return 2;
        }
    }
    JsonValue out = JsonValue::object();
    if (opt.mode == "setup") {
        out.set("setup_end_ns", monotonicNs(Clock::now()));
        return finish(out, nullptr, "");
    }

    LayerCounters counters;
    std::set<std::pair<std::string, std::uint64_t>> solos;
    std::vector<double> point_seconds(configs.size(), 0.0);
    std::vector<double> observe_seconds(configs.size(), 0.0);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        Clock::time_point start = Clock::now();
        if (t != nullptr)
            tracedPoint(configs[i], static_cast<int>(i), *store, t,
                        &counters, &solos, &observe_seconds);
        else
            store->get(configs[i]);
        point_seconds[i] = secondsSince(start);
    }

    JsonValue records;
    {
        ScopedSpan s(t, "stats.export");
        records = store->toJson();
        out.set("export_bytes",
                static_cast<std::uint64_t>(records.dump().size()));
    }
    JsonValue failures = JsonValue::object();
    JsonValue cycles = JsonValue::array();
    ModelTotals totals;
    {
        ScopedSpan s(t, "bench.check");
        totals = checkPoints(*store, configs, &failures, &cycles);
        out.set("digests", recordDigests(records));
    }
    ResultStoreStats stats = store->stats();
    {
        ScopedSpan s(t, "store.close");
        store.reset();
    }

    out.set("points", static_cast<std::uint64_t>(configs.size()));
    out.set("point_s", numberArray(point_seconds));
    out.set("retired_insts", totals.retiredInsts);
    out.set("computed", static_cast<std::uint64_t>(
                            stats.computed + counters.computed));
    if (t != nullptr &&
        static_cast<double>(counters.demandActs) != totals.demandActs)
        failures.set("demand_acts",
                     "the onDemandAct callbacks disagree with the records");
    out.set("failures", std::move(failures));
    if (t != nullptr) {
        JsonValue mechs = JsonValue::array();
        for (const ExperimentConfig &cfg : configs)
            mechs.push(mitigationName(cfg.mechanism));
        JsonValue trace = t->summary(configs.size());
        trace.set("point_mech", std::move(mechs));
        trace.set("point_cycles", std::move(cycles));
        trace.set("point_observe_s", numberArray(observe_seconds));
        JsonValue layers = JsonValue::object();
        layers.set("sim.store.hits", counters.hits);
        layers.set("sim.store.computed", counters.computed);
        layers.set("sim.experiment.solo_runs", counters.soloRuns);
        layers.set("breakhammer.observe_calls", counters.observeCalls);
        layers.set("mem.reads_served", counters.readsServed);
        layers.set("mem.read_latency_cycles.p50",
                   counters.readLatencyCycles.percentile(50));
        layers.set("mem.read_latency_cycles.p90",
                   counters.readLatencyCycles.percentile(90));
        totals.emit(&layers);
        layers.set("trace.unattributed_frac", t->unattributedFrac());
        out.set("layers", std::move(layers));
        out.set("trace", std::move(trace));
    }
    return finish(out, t, opt.trace);
}

/** The CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** prepare mode: the union of the cold workloads, simulated in parallel. */
int
runPrepare(const Options &opt)
{
    std::vector<ExperimentConfig> configs =
        workloadConfigs(kWarmWorkload, opt.seed, opt.insts);
    ResultStore store(usableCpus());
    std::string error;
    if (!store.open(opt.store, &error)) {
        std::fprintf(stderr, "bh_perf: %s\n", error.c_str());
        return 2;
    }
    store.prefetch(configs);
    JsonValue failures = JsonValue::object();
    checkPoints(store, configs, &failures);
    JsonValue out = JsonValue::object();
    out.set("points", static_cast<std::uint64_t>(configs.size()));
    out.set("failures", std::move(failures));
    out.set("digests", recordDigests(store.toJson()));
    return finish(out, nullptr, "");
}

/**
 * export mode (warm-export): an untimed check pass, then timed passes
 * of open -> look up every point -> export until kExportChunkSeconds
 * elapse.
 */
int
runExport(const Options &opt, Clock::time_point t_main)
{
    std::unique_ptr<Tracer> tracer;
    if (!opt.trace.empty())
        tracer = std::make_unique<Tracer>(t_main);
    Tracer *t = tracer.get();

    std::vector<ExperimentConfig> configs;
    {
        ScopedSpan s(t, "sweep.expand");
        configs = workloadConfigs(kWarmWorkload, opt.seed, opt.insts);
    }
    JsonValue out = JsonValue::object();

    // The check pass also warms the page cache and the allocator.
    JsonValue failures = JsonValue::object();
    ModelTotals totals;
    std::string export_digest;
    std::string error;
    {
        ScopedSpan s(t, "bench.check");
        ResultStore store(1);
        if (!store.open(opt.store, &error)) {
            std::fprintf(stderr, "bh_perf: %s\n", error.c_str());
            return 2;
        }
        totals = checkPoints(store, configs, &failures);
        JsonValue records = store.toJson();
        export_digest = digestOf(records.dump());
        out.set("digests", recordDigests(records));
    }

    std::vector<double> pass_seconds;
    std::uint64_t hits = 0; // Per pass; every pass reads the same store.
    std::uint64_t computed = 0;
    Clock::time_point loop_start = Clock::now();
    do {
        const int pass = static_cast<int>(pass_seconds.size());
        const std::string label = "pass " + std::to_string(pass);
        Clock::time_point start = Clock::now();
        std::string text;
        std::size_t found = 0;
        ResultStoreStats stats;
        {
            ScopedSpan whole(t, "pass", pass);
            auto store = std::make_unique<ResultStore>(1);
            {
                ScopedSpan s(t, "store.open", pass);
                if (!store->open(opt.store, &error)) {
                    std::fprintf(stderr, "bh_perf: %s\n", error.c_str());
                    return 2;
                }
            }
            {
                ScopedSpan s(t, "store.lookup", pass);
                for (const ExperimentConfig &cfg : configs)
                    found += store->lookup(cfg) != nullptr;
            }
            {
                ScopedSpan s(t, "stats.export", pass);
                text = store->toJson().dump();
            }
            stats = store->stats();
            ScopedSpan s(t, "store.close", pass);
            store.reset();
        }
        pass_seconds.push_back(secondsSince(start));
        computed += stats.computed;
        hits = stats.hits;
        if (found != configs.size())
            failures.set(label, "points missing from the store");
        else if (digestOf(text) != export_digest)
            failures.set(label, "export differs from the check pass");
    } while (secondsSince(loop_start) < kExportChunkSeconds);

    out.set("points", static_cast<std::uint64_t>(configs.size()));
    out.set("pass_s", numberArray(pass_seconds));
    out.set("retired_insts", totals.retiredInsts);
    out.set("computed", computed);
    out.set("failures", std::move(failures));
    if (t != nullptr) {
        JsonValue layers = JsonValue::object();
        layers.set("sim.store.hits", hits);
        layers.set("sim.store.computed", computed);
        totals.emit(&layers);
        layers.set("trace.unattributed_frac", t->unattributedFrac());
        out.set("layers", std::move(layers));
        out.set("trace", t->summary(pass_seconds.size()));
    }
    return finish(out, t, opt.trace);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point t_main = Clock::now();
    Options opt;
    if (!parseOptions(argc, argv, &opt)) {
        std::fprintf(
            stderr,
            "usage: bh_perf sweep|setup|export --workload=NAME --seed=N "
            "[--insts=N] --store=DIR [--trace=FILE]\n"
            "       bh_perf prepare --seed=N [--insts=N] --store=DIR\n");
        return 2;
    }
    if (opt.mode == "prepare")
        return runPrepare(opt);
    if (opt.mode == "export")
        return runExport(opt, t_main);
    return runSweep(opt, t_main);
}
