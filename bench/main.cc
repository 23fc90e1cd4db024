/**
 * @file
 * bh_bench — the unified benchmark runner.
 *
 *   bh_bench --list                 # what can run
 *   bh_bench fig06 fig07            # named figures
 *   bh_bench all --jobs=8           # the full set, 8 worker threads
 *   bh_bench all --json=out.json    # export every experiment point
 *   bh_bench all --store=results    # persist points; warm runs simulate 0
 *   bh_bench all --store=s1 --shard=1/2   # compute this machine's half
 *
 * All figures declare their grids as SweepSpecs and share one
 * content-addressed ResultStore: grids prefetch in parallel (--jobs),
 * points shared between figures simulate once, and with --store they
 * persist across processes — a fully warm run performs zero simulations
 * and re-exports byte-identical JSON. With --shard=i/N only the points
 * whose content address hashes to shard i are computed (rendering is
 * skipped: tables need the whole grid); shard stores merge by
 * concatenating their results.jsonl files. The JSON export is sorted by
 * canonical experiment key, so its bytes are identical no matter how many
 * jobs — or machines — produced it.
 */
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/env.h"
#include "sim/redteam.h"

namespace {

using namespace bh;

/** Every value bh_bench's flags and BH_* knobs set. */
struct Settings
{
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    std::string jsonPath;
    std::string storeDir;
    CheckpointSpec checkpoint; ///< Cadence only; dir follows --store.
    unsigned shardIndex = 0, shardCount = 0;
    RedteamSpec redteam;
    bool redteamMode = false;
    /** BH_INSTS, --channels, --ranks: the store's ConfigDefaults. */
    std::uint64_t instructions = kDefaultInstructions;
    unsigned channels = 0, ranks = 0;
    unsigned mixes = 0; ///< BH_MIXES; 0 = 5 with BH_FULL, else 1.
    bool fullSweep = false;
    bool denseTick = false;
};

// Row parsers that store one strictly parsed value into @p field.
template <unsigned Settings::*field, std::uint64_t limit>
bool
count(const char *text, Settings *s)
{
    std::uint64_t parsed = 0;
    if (!parsePositiveU64(text, &parsed) || parsed > limit)
        return false;
    s->*field = static_cast<unsigned>(parsed);
    return true;
}

/** A DRAM organization count: the address map slices bits. */
template <unsigned Settings::*field, std::uint64_t limit>
bool
powerOfTwo(const char *text, Settings *s)
{
    if (!count<field, limit>(text, s))
        return false;
    unsigned n = s->*field;
    return (n & (n - 1)) == 0;
}

template <bool Settings::*field>
bool
toggle(const char *text, Settings *s)
{
    return parseSwitch(text, &(s->*field));
}

/** A 1-based "I/N" shard spec with 1 <= I <= N <= 4096. */
bool
parseShardSpec(const char *text, Settings *s)
{
    const char *slash = std::strchr(text, '/');
    return slash != nullptr &&
           count<&Settings::shardIndex, 4096>(
               std::string(text, slash).c_str(), s) &&
           count<&Settings::shardCount, 4096>(slash + 1, s) &&
           s->shardIndex <= s->shardCount;
}

/** "N" retired instructions or "Nc" cycles. */
bool
parseCheckpointEvery(const char *text, Settings *s)
{
    std::string n = text;
    bool cycles = !n.empty() && (n.back() == 'c' || n.back() == 'C');
    if (cycles)
        n.pop_back();
    return parsePositiveU64(n.c_str(), cycles ? &s->checkpoint.everyCycles
                                              : &s->checkpoint.everyInsts);
}

/**
 * One command-line flag ("--name", as --name=VALUE or --name VALUE) or
 * environment knob ("BH_NAME"; unset or empty keeps the default). The
 * table drives parsing, the exit-2 error and usage().
 */
struct Option
{
    const char *name;
    const char *value; ///< Value syntax shown by usage().
    /** Strict parser into the settings; null = read by the library. */
    bool (*parse)(const char *text, Settings *s);
    const char *wants; ///< Error text: "NAME wants <this>, got ...".
    const char *help;
    bool needsStore = false; ///< Valid only together with --store.
};

const Option kOptions[] = {
    {"--jobs", "N", count<&Settings::jobs, 1024>,
     "a positive integer (1..1024)",
     "worker threads for experiment grids (default: hardware)"},
    {"--json", "PATH",
     [](const char *t, Settings *s) { s->jsonPath = t; return *t != '\0'; },
     "a file path", "export every simulated point as JSON"},
    {"--store", "DIR",
     [](const char *t, Settings *s) { s->storeDir = t; return *t != '\0'; },
     "a directory path",
     "persistent result store: reuse cached points, append new ones"},
    {"--shard", "I/N", parseShardSpec,
     "I/N with 1 <= I <= N <= 4096 (e.g. --shard=1/2)",
     "compute only shard I of N (by content address); no rendering"},
    {"--checkpoint-every", "N[c]", parseCheckpointEvery,
     "a positive integer instruction count (or cycles with a 'c' "
     "suffix)",
     "snapshot each point every N insts (Nc: cycles); reruns resume",
     true},
    {"--channels", "N", powerOfTwo<&Settings::channels, 64>,
     "a power-of-two channel count (1..64)",
     "DRAM channels, each with its own controller (default 1)"},
    {"--ranks", "N", powerOfTwo<&Settings::ranks, 16>,
     "a power-of-two rank count (1..16)",
     "DRAM ranks per channel, a power of two (default 2)"},
    {"--redteam", "SEED/ROUNDS/POP",
     [](const char *t, Settings *s) {
         s->redteamMode = true;
         return parseRedteamSpec(t, &s->redteam);
     },
     "SEED/ROUNDS/POP with positive integers (rounds <= 16, pop <= 64; "
     "e.g. --redteam=1/2/4)",
     "evolve adaptive attackers vs PARA/Graphene/Hydra; no figures",
     true},
    {"BH_INSTS", "N",
     [](const char *t, Settings *s) {
         return parsePositiveU64(t, &s->instructions);
     },
     "a positive integer",
     "instructions per benign core (default 100000; paper: 100M)"},
    {"BH_MIXES", "N",
     count<&Settings::mixes, std::numeric_limits<unsigned>::max()>,
     "a positive integer",
     "mixes per class (default 1, or 5 with BH_FULL; paper: 15)"},
    {"BH_FULL", "0|1", toggle<&Settings::fullSweep>,
     "0 or a positive integer",
     "1: the full N_RH sweep (4K..64) and 5 mixes per class"},
    {"BH_DENSE_TICK", "0|1", toggle<&Settings::denseTick>,
     "0 or a positive integer",
     "1: the cycle-by-cycle reference loop (same bytes, slower)"},
    {"BH_LOG", "0|1", nullptr, nullptr,
     "1: progress lines on stderr (read by the library's log gate)"},
};

void
usage()
{
    std::printf("usage: bh_bench [options] <figure>... | all\n"
                "       bh_bench --list\n\n"
                "options:\n"
                "  --list        list registered figures and exit\n");
    bool knobs = false; // The table lists the flags first.
    for (const Option &opt : kOptions) {
        if (!knobs && opt.name[0] != '-') {
            knobs = true;
            std::printf("\nenvironment:\n");
        }
        std::string shown = std::string(opt.name) + "=" + opt.value;
        if (shown.size() >= 14) {
            std::printf("  %s\n", shown.c_str());
            shown.clear();
        }
        std::printf("  %-14s%s\n", shown.c_str(), opt.help);
    }
}

/** The exit-2 error for a malformed value of @p opt. */
int
reject(const Option &opt, const char *text)
{
    std::fprintf(stderr, "error: %s wants %s, got \"%s\"\n", opt.name,
                 opt.wants, text);
    return 2;
}

void
listFigures()
{
    std::printf("%-12s %-52s %s\n", "name", "title", "reproduces");
    for (const bench::Figure &figure : bench::figures())
        std::printf("%-12s %-52s %s%s\n", figure.name.c_str(),
                    figure.title.c_str(), figure.paperRef.c_str(),
                    figure.inAll ? "" : " [study: not part of \"all\"]");
}

} // namespace

int
main(int argc, char **argv)
{
    using Clock = std::chrono::steady_clock;

    // Knobs first: a malformed BH_INSTS would otherwise wrap to a huge
    // horizon and hang the run, BH_MIXES=0 would render every figure
    // from zero points, and BH_FULL=yes would quietly run the small grid.
    Settings s;
    for (const Option &opt : kOptions) {
        if (opt.name[0] == '-' || opt.parse == nullptr)
            continue;
        const char *text = std::getenv(opt.name);
        if (text != nullptr && *text != '\0' && !opt.parse(text, &s))
            return reject(opt, text);
    }

    bool run_all = false;
    std::vector<std::string> names;
    const Option *needs_store = nullptr;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (arg == "--list") {
            listFigures();
            return 0;
        }
        if (arg == "all") {
            run_all = true;
            continue;
        }
        if (arg.empty() || arg[0] != '-') {
            names.push_back(arg);
            continue;
        }
        const Option *match = nullptr;
        const char *value = nullptr;
        for (const Option &opt : kOptions) {
            std::size_t len = std::strlen(opt.name);
            if (opt.name[0] != '-' || arg.compare(0, len, opt.name) != 0)
                continue;
            if (arg.size() > len && arg[len] == '=')
                value = argv[i] + len + 1;
            else if (arg.size() == len && i + 1 < argc)
                value = argv[++i];
            else
                continue;
            match = &opt;
            break;
        }
        if (match == nullptr) {
            std::fprintf(stderr, "unknown option: %s\n\n", arg.c_str());
            usage();
            return 2;
        }
        if (!match->parse(value, &s))
            return reject(*match, value);
        if (match->needsStore)
            needs_store = match;
    }
    if (needs_store != nullptr && s.storeDir.empty()) {
        std::fprintf(stderr, "error: %s requires --store (try --help)\n",
                     needs_store->name);
        return 2;
    }

    if (s.redteamMode && (s.shardCount != 0 || run_all || !names.empty())) {
        std::fprintf(stderr,
                     "error: --redteam is its own mode: it drives the "
                     "search grid itself; drop --shard and figure "
                     "names (try --help)\n");
        return 2;
    }

    // Validate explicit names even when "all" is also given, so typos
    // never silently vanish into a full-grid run.
    std::vector<bench::Figure> named;
    for (const std::string &name : names) {
        const bench::Figure *figure = bench::findFigure(name);
        if (!figure) {
            std::fprintf(stderr, "unknown figure: %s (try --list)\n",
                         name.c_str());
            return 2;
        }
        named.push_back(*figure);
    }

    std::vector<bench::Figure> selected;
    if (run_all) {
        if (!named.empty())
            std::fprintf(stderr, "note: \"all\" includes every figure; "
                                 "ignoring the explicit name(s)\n");
        // Scaling studies (inAll = false) run only by explicit name, so
        // the canonical full-set export keeps its bytes.
        for (const bench::Figure &figure : bench::figures())
            if (figure.inAll)
                selected.push_back(figure);
    } else {
        selected = std::move(named);
    }
    if (selected.empty() && !s.redteamMode) {
        usage();
        return 2;
    }

    ResultStore store(s.jobs);
    if (!s.storeDir.empty()) {
        std::string error;
        if (!store.open(s.storeDir, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
    }
    if (s.checkpoint.everyInsts || s.checkpoint.everyCycles) {
        // Snapshots ride the store directory: resuming needs the same
        // records the interrupted run already streamed out.
        s.checkpoint.dir = s.storeDir + "/snapshots";
        std::error_code ec;
        std::filesystem::create_directories(s.checkpoint.dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "error: cannot create snapshot directory %s: "
                         "%s\n",
                         s.checkpoint.dir.c_str(), ec.message().c_str());
            return 2;
        }
        store.setCheckpoint(s.checkpoint);
    }
    // BH_INSTS, --channels and --ranks fold into every point the store
    // resolves; the figures read the grid shape from the context.
    store.setDefaults({s.instructions, s.channels, s.ranks});
    store.setDenseTick(s.denseTick);
    if (s.shardCount) {
        store.setShard(s.shardIndex, s.shardCount);
        if (s.storeDir.empty() && s.jsonPath.empty())
            std::fprintf(stderr,
                         "note: --shard without --store or --json "
                         "discards the computed points\n");
    }
    bench::Context ctx{&store, s.instructions,
                       s.mixes ? s.mixes : (s.fullSweep ? 5u : 1u),
                       s.fullSweep};

    auto total_start = Clock::now();
    if (s.redteamMode) {
        std::printf("==== red-team fuzzer: seed=%llu rounds=%u pop=%u "
                    "====\n",
                    static_cast<unsigned long long>(s.redteam.seed),
                    s.redteam.rounds, s.redteam.population);
        RedteamReport report = runRedteamSearch(s.redteam, &store);
        std::printf("%-12s %12s %12s  %s\n", "mechanism", "fixed",
                    "adaptive", "best adaptive strategy");
        for (const RedteamMechanismOutcome &o : report.mechanisms)
            std::printf("%-12s %12.6g %12.6g  %s%s\n",
                        mitigationName(o.mechanism), o.bestFixedFitness,
                        o.bestAdaptiveFitness,
                        o.bestAdaptiveStrategy.c_str(),
                        o.improved ? "  [evades]" : "");
        std::printf("fitness: preventive actions per attacker ACT "
                    "(lower = more evasive)\n");
        std::printf("probes=%zu improved_any=%d\n", report.probes,
                    report.improvedAny ? 1 : 0);
    } else if (s.shardCount) {
        // Shard mode: compute this shard's points of the union of the
        // selected figures' sweeps. Rendering is skipped (tables need
        // the whole grid — render from the merged store).
        std::vector<ExperimentConfig> grid;
        for (const bench::Figure &figure : selected) {
            if (!figure.sweep)
                continue;
            std::vector<ExperimentConfig> points =
                figure.sweep(ctx).expand();
            grid.insert(grid.end(), points.begin(), points.end());
        }
        std::printf("==== shard %u/%u: %zu grid point(s) across %zu "
                    "figure(s) ====\n",
                    s.shardIndex, s.shardCount, grid.size(),
                    selected.size());
        store.prefetch(grid);
    } else {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const bench::Figure &figure = selected[i];
            if (i)
                std::printf("\n");
            benchutil::header(ctx, figure.title, figure.paperRef);
            auto start = Clock::now();
            if (figure.sweep)
                store.prefetch(figure.sweep(ctx).expand());
            figure.render(ctx);
            double secs =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            std::printf("\n[%s: %.2f s, store: %zu points]\n",
                        figure.name.c_str(), secs, store.size());
        }
    }
    double total_secs =
        std::chrono::duration<double>(Clock::now() - total_start).count();
    ResultStoreStats stats = store.stats();
    std::printf("\n==== done: %zu figure(s), %zu experiment point(s), "
                "%.2f s, jobs=%u ====\n",
                selected.size(), store.size(), total_secs, s.jobs);
    std::printf("store: simulated=%zu solo_simulated=%zu hits=%zu "
                "loaded=%zu shard_skipped=%zu\n",
                stats.computed, stats.soloComputed, stats.hits,
                stats.loaded, stats.shardSkipped);

    if (!s.jsonPath.empty()) {
        JsonValue doc = JsonValue::object();
        doc.set("experiments", store.toJson());
        std::string text = doc.dump(2) + "\n";
        std::FILE *f = std::fopen(s.jsonPath.c_str(), "w");
        // A full disk surfaces at fwrite, fflush or fclose; check all.
        bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) ==
                      text.size() &&
                  std::fflush(f) == 0;
        if (f != nullptr && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "error: cannot write %s: %s\n",
                         s.jsonPath.c_str(), std::strerror(errno));
            return 1;
        }
        std::printf("wrote %s\n", s.jsonPath.c_str());
    }
    return 0;
}
