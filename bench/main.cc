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
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/env.h"
#include "sim/redteam.h"

namespace {

void
usage()
{
    std::printf(
        "usage: bh_bench [options] <figure>... | all\n"
        "       bh_bench --list\n\n"
        "options:\n"
        "  --list        list registered figures and exit\n"
        "  --jobs=N      worker threads for experiment grids "
        "(default: hardware)\n"
        "  --json=PATH   export every simulated point as JSON\n"
        "  --store=DIR   persistent result store: reuse cached points,\n"
        "                append new ones (merge stores with cat)\n"
        "  --shard=I/N   compute only shard I of N (1-based, by content\n"
        "                address) and skip rendering; combine with "
        "--store\n"
        "  --checkpoint-every=N[c]\n"
        "                with --store: snapshot each running simulation\n"
        "                every N retired instructions (or N cycles with\n"
        "                the 'c' suffix) into <store>/snapshots; a killed\n"
        "                run restarted with the same flags resumes from\n"
        "                its snapshots bit-identically\n"
        "  --channels=N  DRAM channels (power of two; default 1). Each\n"
        "                channel gets its own memory controller and\n"
        "                mitigation state; addresses interleave across\n"
        "                channels\n"
        "  --ranks=N     DRAM ranks per channel (power of two; default "
        "2)\n"
        "  --redteam=SEED/ROUNDS/POP\n"
        "                red-team fuzzer: evolve adaptive attacker\n"
        "                strategies (pattern, pacing, observation\n"
        "                cadence, thread rotation) against PARA,\n"
        "                Graphene, and Hydra for ROUNDS generations of\n"
        "                POP strategies from the given seed; probes\n"
        "                persist in --store (required) under |rt= keys,\n"
        "                so a re-run simulates 0 and reports identical\n"
        "                results. Takes no figures\n\n"
        "scale knobs (environment): BH_INSTS, BH_MIXES, BH_FULL\n");
}

void
listFigures()
{
    std::printf("%-12s %-52s %s\n", "name", "title", "reproduces");
    for (const bh::bench::Figure &figure : bh::bench::figures())
        std::printf("%-12s %-52s %s%s\n", figure.name.c_str(),
                    figure.title.c_str(), figure.paperRef.c_str(),
                    figure.inAll ? "" : " [study: not part of \"all\"]");
}

/**
 * Parse a 1-based "I/N" shard spec. Rejects non-numeric parts, zero on
 * either side (parsePositiveU64 is strict), and I > N.
 */
bool
parseShardSpec(const char *text, unsigned *index, unsigned *count)
{
    const char *slash = std::strchr(text, '/');
    if (slash == nullptr || slash == text || slash[1] == '\0')
        return false;
    std::string index_text(text, slash);
    std::uint64_t i = 0, n = 0;
    if (!bh::parsePositiveU64(index_text.c_str(), &i) ||
        !bh::parsePositiveU64(slash + 1, &n))
        return false;
    if (i > n || n > 4096)
        return false;
    *index = static_cast<unsigned>(i);
    *count = static_cast<unsigned>(n);
    return true;
}

/**
 * Parse a DRAM organization count: strictly numeric, positive, a power
 * of two (the address map slices bits, so anything else cannot be
 * encoded), and within a sane bound.
 */
bool
parseOrgCount(const char *text, std::uint64_t limit, unsigned *out)
{
    std::uint64_t parsed = 0;
    if (!bh::parsePositiveU64(text, &parsed) || parsed > limit ||
        (parsed & (parsed - 1)) != 0)
        return false;
    *out = static_cast<unsigned>(parsed);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bh;
    using Clock = std::chrono::steady_clock;

    // Validate the scale knobs up front: a negative or malformed BH_INSTS
    // would otherwise wrap to a huge unsigned and hang the whole run, and
    // BH_MIXES=0 would render every figure from zero points.
    for (const char *knob : {"BH_INSTS", "BH_MIXES"}) {
        const char *text = std::getenv(knob);
        std::uint64_t parsed = 0;
        if (text != nullptr && *text != '\0' &&
            !parsePositiveU64(text, &parsed)) {
            std::fprintf(stderr,
                         "error: %s=%s is not a positive integer\n", knob,
                         text);
            return 2;
        }
    }

    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    std::string json_path;
    std::string store_dir;
    std::uint64_t checkpoint_insts = 0;
    std::uint64_t checkpoint_cycles = 0;
    ConfigDefaults defaults;
    unsigned shard_index = 0, shard_count = 0;
    RedteamSpec redteam_spec;
    bool redteam_mode = false;
    bool run_all = false;
    std::vector<std::string> names;

    // Flags taking a value accept both --flag=VALUE and --flag VALUE.
    auto flag_value = [&](const std::string &arg, const char *flag,
                          int *i, const char **out) {
        std::size_t len = std::strlen(flag);
        if (arg.compare(0, len, flag) != 0)
            return false;
        if (arg.size() > len && arg[len] == '=') {
            *out = argv[*i] + len + 1;
            return true;
        }
        if (arg.size() == len && *i + 1 < argc) {
            *out = argv[++*i];
            return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *value = nullptr;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            listFigures();
            return 0;
        } else if (flag_value(arg, "--jobs", &i, &value)) {
            std::uint64_t parsed = 0;
            if (!parsePositiveU64(value, &parsed) || parsed > 1024) {
                std::fprintf(stderr,
                             "error: --jobs wants a positive integer "
                             "(1..1024), got \"%s\"\n",
                             value);
                return 2;
            }
            jobs = static_cast<unsigned>(parsed);
        } else if (flag_value(arg, "--json", &i, &value)) {
            json_path = value;
        } else if (flag_value(arg, "--store", &i, &value)) {
            store_dir = value;
            if (store_dir.empty()) {
                std::fprintf(stderr,
                             "error: --store wants a directory path\n");
                return 2;
            }
        } else if (flag_value(arg, "--checkpoint-every", &i, &value)) {
            std::string text = value;
            bool in_cycles = false;
            if (!text.empty() &&
                (text.back() == 'c' || text.back() == 'C')) {
                in_cycles = true;
                text.pop_back();
            }
            std::uint64_t parsed = 0;
            if (!parsePositiveU64(text.c_str(), &parsed)) {
                std::fprintf(stderr,
                             "error: --checkpoint-every wants a positive "
                             "integer instruction count (or cycles with "
                             "a 'c' suffix), got \"%s\"\n",
                             value);
                return 2;
            }
            if (in_cycles)
                checkpoint_cycles = parsed;
            else
                checkpoint_insts = parsed;
        } else if (flag_value(arg, "--channels", &i, &value)) {
            if (!parseOrgCount(value, 64, &defaults.channels)) {
                std::fprintf(stderr,
                             "error: --channels wants a power-of-two "
                             "channel count (1..64), got \"%s\"\n",
                             value);
                return 2;
            }
        } else if (flag_value(arg, "--ranks", &i, &value)) {
            if (!parseOrgCount(value, 16, &defaults.ranks)) {
                std::fprintf(stderr,
                             "error: --ranks wants a power-of-two rank "
                             "count (1..16), got \"%s\"\n",
                             value);
                return 2;
            }
        } else if (flag_value(arg, "--redteam", &i, &value)) {
            if (!parseRedteamSpec(value, &redteam_spec)) {
                std::fprintf(stderr,
                             "error: --redteam wants SEED/ROUNDS/POP "
                             "with positive integers (rounds <= 16, "
                             "pop <= 64; e.g. --redteam=1/2/4), got "
                             "\"%s\"\n",
                             value);
                return 2;
            }
            redteam_mode = true;
        } else if (flag_value(arg, "--shard", &i, &value)) {
            if (!parseShardSpec(value, &shard_index, &shard_count)) {
                std::fprintf(stderr,
                             "error: --shard wants I/N with 1 <= I <= N "
                             "<= 4096 (e.g. --shard=1/2), got \"%s\"\n",
                             value);
                return 2;
            }
        } else if (arg == "all") {
            run_all = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option: %s\n\n", arg.c_str());
            usage();
            return 2;
        } else {
            names.push_back(arg);
        }
    }

    if (redteam_mode && (shard_count != 0 || run_all || !names.empty())) {
        std::fprintf(stderr,
                     "error: --redteam is its own mode: it drives the "
                     "search grid itself; drop --shard and figure "
                     "names (try --help)\n");
        return 2;
    }
    if (redteam_mode && store_dir.empty()) {
        std::fprintf(stderr,
                     "error: --redteam requires --store: probes persist "
                     "under |rt= keys so re-runs simulate 0 (try "
                     "--help)\n");
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
    if (selected.empty() && !redteam_mode) {
        usage();
        return 2;
    }

    ResultStore store(jobs);
    if (!store_dir.empty()) {
        std::string error;
        if (!store.open(store_dir, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
    }
    if (checkpoint_insts || checkpoint_cycles) {
        // Snapshots ride the store directory: resuming needs the same
        // records the interrupted run already streamed out.
        if (store_dir.empty()) {
            std::fprintf(stderr,
                         "error: --checkpoint-every requires --store "
                         "(snapshots live in <store>/snapshots)\n");
            return 2;
        }
        CheckpointSpec spec;
        spec.dir = store_dir + "/snapshots";
        spec.everyInsts = checkpoint_insts;
        spec.everyCycles = checkpoint_cycles;
        std::error_code ec;
        std::filesystem::create_directories(spec.dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "error: cannot create snapshot directory %s: "
                         "%s\n",
                         spec.dir.c_str(), ec.message().c_str());
            return 2;
        }
        store.setCheckpoint(spec);
    }
    // --channels and --ranks fold into every point the store resolves.
    store.setDefaults(defaults);
    if (shard_count) {
        store.setShard(shard_index, shard_count);
        if (store_dir.empty() && json_path.empty())
            std::fprintf(stderr,
                         "note: --shard without --store or --json "
                         "discards the computed points\n");
    }
    bench::Context ctx{&store};

    auto total_start = Clock::now();
    if (redteam_mode) {
        std::printf("==== red-team fuzzer: seed=%llu rounds=%u pop=%u "
                    "====\n",
                    static_cast<unsigned long long>(redteam_spec.seed),
                    redteam_spec.rounds, redteam_spec.population);
        RedteamReport report = runRedteamSearch(redteam_spec, &store);
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
    } else if (shard_count) {
        // Shard mode: compute this shard's points of the union of the
        // selected figures' sweeps. Rendering is skipped (tables need
        // the whole grid — render from the merged store).
        std::vector<ExperimentConfig> grid;
        for (const bench::Figure &figure : selected) {
            if (!figure.sweep)
                continue;
            std::vector<ExperimentConfig> points =
                figure.sweep().expand();
            grid.insert(grid.end(), points.begin(), points.end());
        }
        std::printf("==== shard %u/%u: %zu grid point(s) across %zu "
                    "figure(s) ====\n",
                    shard_index, shard_count, grid.size(),
                    selected.size());
        store.prefetch(grid);
    } else {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const bench::Figure &figure = selected[i];
            if (i)
                std::printf("\n");
            benchutil::header(figure.title, figure.paperRef);
            auto start = Clock::now();
            if (figure.sweep)
                store.prefetch(figure.sweep().expand());
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
                selected.size(), store.size(), total_secs, jobs);
    std::printf("store: simulated=%zu solo_simulated=%zu hits=%zu "
                "loaded=%zu shard_skipped=%zu\n",
                stats.computed, stats.soloComputed, stats.hits,
                stats.loaded, stats.shardSkipped);

    if (!json_path.empty()) {
        JsonValue doc = JsonValue::object();
        doc.set("experiments", store.toJson());
        std::string text = doc.dump(2) + "\n";
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        // A full disk surfaces at fwrite, fflush or fclose; check all.
        bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) ==
                      text.size() &&
                  std::fflush(f) == 0;
        if (f != nullptr && std::fclose(f) != 0)
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "error: cannot write %s: %s\n",
                         json_path.c_str(), std::strerror(errno));
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
