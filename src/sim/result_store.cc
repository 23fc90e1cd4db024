#include "sim/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string_view>
#include <thread>
#include <utility>

#include "common/log.h"
#include "sim/parallel_for.h"

namespace bh {

namespace {

constexpr const char *kResultsFile = "results.jsonl";

} // namespace

ResultStore::ResultStore(unsigned threads)
    : threads(threads ? threads
                      : std::max(1u, std::thread::hardware_concurrency()))
{
}

ResultStore::~ResultStore()
{
    if (fd >= 0)
        ::close(fd);
}

bool
ResultStore::open(const std::string &dir, std::string *error)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (error)
            *error = "cannot create store directory " + dir + ": " +
                     ec.message();
        return false;
    }

    std::string path = dir + "/" + kResultsFile;
    loadFile(path);

    // O_APPEND with each record written by one write() call: whole lines
    // land contiguously even with concurrent appenders (on local
    // filesystems), so the worst a crash mid-run leaves is one torn
    // final line, which the loader skips. stdio buffering is avoided
    // deliberately — a buffered stream flushes large records in chunks
    // that could interleave between processes.
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        if (error)
            *error = "cannot open " + path + " for append: " +
                     std::strerror(errno);
        return false;
    }

    // Advisory single-writer lock, held until the store is destroyed.
    // Two concurrent appenders would be *mostly* safe (whole-line
    // O_APPEND writes), but they would duplicate simulations, and a
    // torn line from one could fuse with the other's next record. Fail
    // fast with a clear message instead of interleaving.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        if (error)
            *error = "store " + dir + " is locked by another process " +
                     "(another --store run already owns it): " +
                     std::strerror(errno);
        ::close(fd);
        fd = -1;
        return false;
    }

    context.soloSink = [this](const std::string &app, std::uint64_t insts,
                              double ipc) {
        JsonValue rec = JsonValue::object();
        rec.set("v", kSchemaVersion);
        rec.set("kind", "solo");
        rec.set("app", app);
        rec.set("insts", insts);
        rec.set("ipc", ipc);
        appendLine(rec.dump());
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.soloComputed;
    };
    return true;
}

void
ResultStore::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return; // A fresh store: nothing on disk yet.

    // One candidate record, checked without building a payload tree: its
    // small members decoded into @c rec (set() keeps the last duplicate,
    // as parse() does), its payload kept as the bytes on the line.
    JsonValue rec;
    std::string_view payload;
    const JsonValue::MemberVisitor visit = [&](const std::string &name,
                                               std::string_view raw) {
        if (name == "payload") {
            payload = raw;
            return;
        }
        JsonValue value;
        JsonValue::parse(raw, &value); // scan() has checked these bytes.
        rec.set(name, std::move(value));
    };
    auto scanRecord = [&](std::string_view text) {
        rec = JsonValue::object();
        payload = {};
        return JsonValue::scan(text, visit);
    };

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        if (!scanRecord(line)) {
            // Torn or malformed line. A crashed writer's torn record has
            // no trailing newline, so the next append — a perfectly valid
            // record — lands on the same physical line and would be lost
            // with it. Recover it: scan for an embedded record start and
            // check the suffix, skipping only the torn prefix.
            bool recovered = false;
            for (std::size_t pos = line.find("{\"v\":", 1);
                 pos != std::string::npos;
                 pos = line.find("{\"v\":", pos + 1)) {
                if (scanRecord(std::string_view(line).substr(pos))) {
                    std::fprintf(stderr,
                                 "result store: recovered a record fused "
                                 "to a torn write on line %zu of %s\n",
                                 line_no, path.c_str());
                    recovered = true;
                    break;
                }
            }
            ++counters.skipped; // The torn prefix (or the whole line).
            if (!recovered) {
                std::fprintf(stderr,
                             "result store: skipping malformed line %zu "
                             "of %s\n",
                             line_no, path.c_str());
                continue;
            }
        }
        // A line that is valid JSON but not an object reported no
        // members, so it fails here like any other unreadable record.
        const JsonValue *version = rec.find("v");
        const JsonValue *kind = rec.find("kind");
        if (version == nullptr || !version->isU64() ||
            version->asU64() != kSchemaVersion || kind == nullptr ||
            !kind->isString()) {
            ++counters.skipped; // Other schema version: recompute.
            continue;
        }
        if (kind->asString() == "experiment") {
            const JsonValue *key = rec.find("key");
            if (key == nullptr || !key->isString() || payload.empty()) {
                ++counters.skipped;
                continue;
            }
            // Keep the payload's bytes, not a parsed tree: a store can
            // hold far more records than one run requests, and
            // resolveFromDisk() decodes only the requested ones.
            if (diskPayloads.try_emplace(key->asString(), payload).second)
                ++counters.loaded;
        } else if (kind->asString() == "solo") {
            const JsonValue *app = rec.find("app");
            const JsonValue *insts = rec.find("insts");
            const JsonValue *ipc = rec.find("ipc");
            if (app == nullptr || !app->isString() || insts == nullptr ||
                !insts->isU64() || ipc == nullptr || !ipc->isNumber()) {
                ++counters.skipped;
                continue;
            }
            primeSoloIpc(app->asString(), insts->asU64(),
                         ipc->asDouble());
            ++counters.soloLoaded;
        } else {
            ++counters.skipped;
        }
    }
    BH_LOG("store: loaded %zu experiment + %zu solo records from %s "
           "(%zu skipped)",
           counters.loaded, counters.soloLoaded, path.c_str(),
           counters.skipped);
}

void
ResultStore::appendLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex);
    // After one failure the stream may sit mid-record (a short write has
    // no trailing newline); appending more would fuse it with the next
    // record into one malformed line. Stop persisting entirely — which
    // is also what the warning promises.
    if (fd < 0 || writeFailed)
        return;
    std::string record = line;
    record.push_back('\n');
    ssize_t written = ::write(fd, record.data(), record.size());
    if (written != static_cast<ssize_t>(record.size())) {
        // Warn once: a full disk mid-sweep must not silently drop every
        // remaining record while the run reports success.
        writeFailed = true;
        std::fprintf(stderr,
                     "result store: append failed (%s); further results "
                     "of this run will NOT be persisted\n",
                     written < 0 ? std::strerror(errno)
                                 : "short write");
    }
}

void
ResultStore::appendExperiment(const ExperimentConfig &config,
                              const ExperimentResult &result)
{
    if (fd < 0)
        return;
    JsonValue rec = JsonValue::object();
    rec.set("v", kSchemaVersion);
    rec.set("kind", "experiment");
    rec.set("key", experimentKey(config));
    rec.set("payload", experimentResultToJson(config, result));
    appendLine(rec.dump());
}

void
ResultStore::setShard(unsigned index, unsigned count)
{
    shardIndex = index;
    shardCount = count;
}

unsigned
ResultStore::shardOf(const std::string &key, unsigned count)
{
    // FNV-1a over the content address: stable across processes,
    // machines, and figure orderings — the property that lets shards be
    // assigned without any coordination.
    std::uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : key) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return count ? static_cast<unsigned>(hash % count) + 1 : 1;
}

const ResultStore::Entry *
ResultStore::resolveFromDisk(const std::string &key,
                             const ExperimentConfig &config)
{
    auto disk = diskPayloads.find(key);
    if (disk == diskPayloads.end())
        return nullptr;
    ExperimentResult parsed;
    if (!experimentResultFromJson(disk->second, &parsed)) {
        // Same version but unreadable payload: drop it and recompute.
        diskPayloads.erase(disk);
        ++counters.skipped;
        return nullptr;
    }
    diskPayloads.erase(disk);
    ++counters.hits;
    return &cache.emplace(key, Entry{config, std::move(parsed)})
                .first->second;
}

ExperimentConfig
ResultStore::resolve(const ExperimentConfig &config) const
{
    // The defaults fill only the fields @p config leaves unset. The
    // horizon goes in first: the BreakHammer window resolves from it.
    ExperimentConfig resolved = config;
    if (resolved.instructions == 0)
        resolved.instructions = defaults.instructions;
    if (resolved.channels == 0)
        resolved.channels = defaults.channels;
    if (resolved.ranks == 0)
        resolved.ranks = defaults.ranks;
    return resolveExperimentConfig(resolved);
}

void
ResultStore::prefetch(const std::vector<ExperimentConfig> &configs)
{
    std::vector<ExperimentConfig> missing;
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::set<std::string> requested;
        for (const ExperimentConfig &config : configs) {
            // Content addresses are always over the RESOLVED config:
            // keying a defaulted one would alias every horizon to the
            // same record and serve wrong-horizon results.
            ExperimentConfig resolved = resolve(config);
            std::string key = experimentKey(resolved);
            if (cache.count(key) || !requested.insert(key).second)
                continue;
            if (resolveFromDisk(key, resolved) != nullptr)
                continue;
            if (shardCount &&
                shardOf(key, shardCount) != shardIndex) {
                ++counters.shardSkipped;
                continue;
            }
            missing.push_back(std::move(resolved));
        }
    }
    if (missing.empty()) {
        BH_LOG("prefetch: %zu points, all cached", configs.size());
        return;
    }
    BH_LOG("prefetch: %zu points, simulating %zu on %u thread(s)",
           configs.size(), missing.size(), threads);

    // Warm the weighted-speedup denominators first: each unique
    // (app, insts) solo run executes exactly once, where workers holding
    // the same mix would otherwise race to duplicate it.
    std::vector<std::pair<std::string, std::uint64_t>> deps =
        soloDependencies(missing);
    parallelFor(deps.size(), threads, [&](std::size_t i) {
        soloIpc(deps[i].first, deps[i].second, context);
    });

    // Every point is seeded from its config alone, so results do not
    // depend on which worker runs it. Each finished point streams to
    // disk at once: an interrupted sweep resumes where it stopped.
    parallelFor(missing.size(), threads, [&](std::size_t i) {
        ExperimentResult result = runExperiment(missing[i], context);
        appendExperiment(missing[i], result);
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.computed;
        cache.emplace(experimentKey(missing[i]),
                      Entry{missing[i], std::move(result)});
    });
}

const ExperimentResult &
ResultStore::get(const ExperimentConfig &config)
{
    ExperimentConfig resolved = resolve(config);
    std::string key = experimentKey(resolved);
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second.result;
        if (const Entry *entry = resolveFromDisk(key, resolved))
            return entry->result;
    }
    ExperimentResult result = runExperiment(resolved, context);
    appendExperiment(resolved, result);
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.computed;
    return cache.emplace(key, Entry{std::move(resolved), std::move(result)})
        .first->second.result;
}

const ExperimentResult *
ResultStore::lookup(const ExperimentConfig &config)
{
    ExperimentConfig resolved = resolve(config);
    std::string key = experimentKey(resolved);
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it != cache.end())
        return &it->second.result;
    if (const Entry *entry = resolveFromDisk(key, resolved))
        return &entry->result;
    return nullptr;
}

bool
ResultStore::ingest(const ExperimentConfig &config,
                    const JsonValue &payload, std::string *error)
{
    ExperimentConfig resolved = resolve(config);
    std::string key = experimentKey(resolved);
    ExperimentResult parsed;
    if (!experimentResultFromJson(payload.dump(), &parsed)) {
        if (error)
            *error = "result payload for " + key +
                     " is not a valid experiment record";
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (cache.count(key))
            return true; // First record won already.
        diskPayloads.erase(key);
        cache.emplace(key, Entry{resolved, parsed});
    }
    // Re-serialize through the canonical encoder rather than appending
    // the caller's payload verbatim: the stored line is then
    // byte-identical to what a local simulation of the same point would
    // have written (the round trip is exact — experiment.h documents it).
    appendExperiment(resolved, parsed);
    return true;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return cache.size();
}

ResultStoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

JsonValue
ResultStore::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex);
    JsonValue arr = JsonValue::array();
    for (const auto &entry : cache) // std::map: sorted by key already
        arr.push(experimentResultToJson(entry.second.config,
                                        entry.second.result));
    return arr;
}

} // namespace bh
