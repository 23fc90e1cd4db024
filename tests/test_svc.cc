/**
 * @file
 * Tests for the distributed sweep service (src/svc): the length-prefixed
 * frame codec (round-trips under arbitrary chunking; truncated,
 * oversized, zero-length, and garbage streams rejected without UB — this
 * file runs under ASan+UBSan in CI), the ExperimentConfig wire codec
 * (experimentKey()-exact round trip), and the coordinator/worker loop
 * itself: an in-process coordinator with two real workers over loopback
 * produces a store byte-identical to a local run of the same grid, a
 * client that takes a lease and goes silent forfeits it at the deadline,
 * and a client that drops its connection forfeits immediately — in both
 * cases the unit is re-leased and the sweep still completes. A client
 * that sends negative counts is refused without stopping the sweep.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/experiment.h"
#include "sim/redteam.h"
#include "sim/result_store.h"
#include "svc/coordinator.h"
#include "svc/frame.h"
#include "svc/protocol.h"
#include "svc/worker.h"

namespace bh::svc {
namespace {

// ---------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------

TEST(FrameTest, RoundTripsUnderByteAtATimeDelivery)
{
    // No empty payload: a zero length is poison by design (every real
    // message is at least "{}"), which ZeroLengthPoisonsTheStream pins.
    const std::vector<std::string> payloads = {
        "{}", std::string("x"), std::string(100000, 'y'),
        std::string("{\"key\":\"with \\\"quotes\\\" and \\n\"}")};
    std::string stream;
    for (const std::string &p : payloads)
        stream += encodeFrame(p);

    // Worst-case TCP chunking: one byte per feed().
    FrameReader reader;
    std::vector<std::string> decoded;
    std::string payload;
    for (char byte : stream) {
        reader.feed(&byte, 1);
        while (reader.next(&payload))
            decoded.push_back(payload);
    }
    EXPECT_FALSE(reader.broken());
    EXPECT_EQ(decoded, payloads);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, TruncatedFrameYieldsNothing)
{
    std::string frame = encodeFrame("hello, worker");
    FrameReader reader;
    reader.feed(frame.data(), frame.size() - 1);
    std::string payload;
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_FALSE(reader.broken()); // Incomplete, not invalid.

    reader.feed(frame.data() + frame.size() - 1, 1);
    ASSERT_TRUE(reader.next(&payload));
    EXPECT_EQ(payload, "hello, worker");
}

TEST(FrameTest, OversizedLengthPoisonsTheStream)
{
    std::uint32_t huge = kMaxFramePayload + 1;
    char header[4];
    std::memcpy(header, &huge, 4);
    FrameReader reader;
    reader.feed(header, 4);
    std::string payload;
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_TRUE(reader.broken());
    EXPECT_FALSE(reader.error().empty());

    // Poisoned for good: even a valid frame afterwards stays unread.
    std::string valid = encodeFrame("{}");
    reader.feed(valid.data(), valid.size());
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_TRUE(reader.broken());
}

TEST(FrameTest, ZeroLengthPoisonsTheStream)
{
    char header[4] = {0, 0, 0, 0};
    FrameReader reader;
    reader.feed(header, 4);
    std::string payload;
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_TRUE(reader.broken());
}

TEST(FrameTest, HttpGarbageLooksLikeAnAbsurdLength)
{
    // "GET " little-endian is ~0.5 GB — the reason the coordinator can
    // sniff HTTP on the same port before framing ever engages.
    const char *request = "GET /progress HTTP/1.1\r\n\r\n";
    FrameReader reader;
    reader.feed(request, std::strlen(request));
    std::string payload;
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_TRUE(reader.broken());
}

// ---------------------------------------------------------------------
// Message envelope + config wire codec.
// ---------------------------------------------------------------------

TEST(ProtocolTest, RejectsGarbageMessages)
{
    JsonValue msg;
    std::string error;
    EXPECT_FALSE(parseMessage("not json at all", &msg, &error));
    EXPECT_FALSE(parseMessage("[1,2,3]", &msg, &error)); // Not an object.
    EXPECT_FALSE(parseMessage("{\"type\":7}", &msg, &error));
    EXPECT_FALSE(parseMessage("{}", &msg, &error));
    EXPECT_TRUE(parseMessage("{\"type\":\"hello\"}", &msg, &error));
    EXPECT_EQ(messageType(msg), "hello");
}

TEST(ProtocolTest, DeeplyNestedPayloadIsAnErrorNotACrash)
{
    // A frame may carry up to kMaxFramePayload bytes; a run of '[' used
    // to recurse once per byte and overflow the event loop's stack.
    JsonValue msg;
    std::string error;
    EXPECT_FALSE(parseMessage(std::string(100000, '['), &msg, &error));
    EXPECT_EQ(error, "nesting too deep");
    EXPECT_FALSE(parseMessage("{\"type\":\"result\",\"payload\":" +
                                  std::string(100000, '['),
                              &msg, &error));
    EXPECT_EQ(error, "nesting too deep");
}

TEST(ProtocolTest, ConfigRoundTripPreservesExperimentKey)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("HHMA", 1);
    cfg.mechanism = MitigationType::kGraphene;
    cfg.nRh = 512;
    cfg.breakHammer = true;
    cfg.instructions = 12345;
    cfg.oracle = true;
    cfg.bluntThrottle = true;
    cfg.seed = 7;
    cfg.channels = 2;
    cfg.ranks = 4;
    RedteamStrategy strategy;
    strategy.pattern = AttackPattern::kHalfDouble;
    strategy.group = 2;
    cfg.redteam = redteamStrategyCanonical(strategy);
    ExperimentConfig resolved = resolveExperimentConfig(cfg);

    JsonValue wire = experimentConfigToJson(resolved);
    // Every member the codec writes, and nothing else.
    std::vector<std::string> members;
    for (const auto &[name, value] : wire.members())
        members.push_back(name);
    EXPECT_EQ(members,
              (std::vector<std::string>{
                  "mix", "mechanism", "nrh", "breakhammer", "bh",
                  "instructions", "oracle", "blunt_throttle", "seed",
                  "channels", "ranks", "redteam"}));
    // Through a dump/parse cycle, as the wire actually delivers it.
    JsonValue parsed = JsonValue::parseOrDie(wire.dump());
    ExperimentConfig back;
    ASSERT_TRUE(experimentConfigFromJson(parsed, &back));
    EXPECT_EQ(experimentKey(back), experimentKey(resolved));
    EXPECT_EQ(back.mix.pattern, resolved.mix.pattern);
    EXPECT_EQ(back.bh.window, resolved.bh.window);
    EXPECT_EQ(back.bh.thThreat, resolved.bh.thThreat);
    EXPECT_EQ(back.redteam, resolved.redteam);
}

TEST(ProtocolTest, ConfigCodecRejectsMalformedDocuments)
{
    ExperimentConfig back;
    EXPECT_FALSE(experimentConfigFromJson(JsonValue::object(), &back));
    EXPECT_FALSE(experimentConfigFromJson(JsonValue("str"), &back));

    ExperimentConfig small;
    small.mix = makeMix("LLLA", 0);
    JsonValue wire =
        experimentConfigToJson(resolveExperimentConfig(small));
    JsonValue broken = wire;
    broken.set("mechanism", "not-a-mechanism");
    EXPECT_FALSE(experimentConfigFromJson(broken, &back));
}

// ---------------------------------------------------------------------
// Coordinator + workers over loopback.
// ---------------------------------------------------------------------

/** A small grid cheap enough to simulate twice in one test binary. */
std::vector<ExperimentConfig>
loopbackGrid()
{
    std::vector<ExperimentConfig> grid;
    const char *patterns[] = {"HHMA", "LLLA", "MMLL"};
    for (const char *pattern : patterns) {
        ExperimentConfig cfg;
        cfg.mix = makeMix(pattern, 0);
        cfg.mechanism = MitigationType::kGraphene;
        cfg.nRh = 512;
        cfg.breakHammer = true;
        cfg.instructions = 3000;
        grid.push_back(cfg);
    }
    // A duplicate point: must collapse to one work unit.
    grid.push_back(grid.front());
    return grid;
}

std::string
freshDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "bh_svc_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The sorted "experiment" record lines of a store's results.jsonl.
 *  Solo records are excluded: the process-wide solo cache means only
 *  whichever run simulated first writes them. */
std::vector<std::string>
experimentLines(const std::string &dir)
{
    std::vector<std::string> lines;
    std::ifstream in(dir + "/results.jsonl");
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"kind\":\"experiment\"") != std::string::npos)
            lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST(SweepServiceTest, TwoWorkersReproduceTheLocalStoreByteForByte)
{
    std::vector<ExperimentConfig> grid = loopbackGrid();

    // Ground truth: a local single-process run of the same grid.
    std::string local_dir = freshDir("local");
    std::string local_json;
    {
        ResultStore local(2);
        std::string error;
        ASSERT_TRUE(local.open(local_dir, &error)) << error;
        local.prefetch(grid);
        local_json = local.toJson().dump();
    }

    std::string svc_dir = freshDir("svc");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(svc_dir, &error)) << error;

    CoordinatorOptions copts;
    copts.port = 0; // Ephemeral: tests never collide on a port.
    copts.leaseTimeoutMs = 60000;
    SweepCoordinator coordinator(copts, &store, grid);
    ASSERT_TRUE(coordinator.start(&error)) << error;
    EXPECT_EQ(coordinator.metrics().unitsTotal, 3u); // Dedup applied.

    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    auto run_worker = [&](const char *name, bool *ok) {
        WorkerOptions wopts;
        wopts.port = coordinator.port();
        wopts.jobs = 1;
        wopts.name = name;
        SweepWorker worker(wopts);
        std::string worker_error;
        *ok = worker.run(&worker_error);
        EXPECT_TRUE(*ok) << worker_error;
    };
    bool ok1 = false, ok2 = false;
    std::thread w1(run_worker, "w1", &ok1);
    std::thread w2(run_worker, "w2", &ok2);
    w1.join();
    w2.join();
    serve.join();
    EXPECT_TRUE(ok1);
    EXPECT_TRUE(ok2);

    CoordinatorMetrics m = coordinator.metrics();
    EXPECT_TRUE(m.complete);
    EXPECT_EQ(m.unitsDone, 3u);
    EXPECT_EQ(m.recordsIngested, 3u);
    EXPECT_EQ(m.unitsWarm, 0u);
    EXPECT_EQ(m.leasesOutstanding, 0u);

    // The distributed run's export and on-disk experiment records are
    // byte-identical to the local run's.
    EXPECT_EQ(store.toJson().dump(), local_json);
    std::vector<std::string> svc_lines = experimentLines(svc_dir);
    EXPECT_EQ(svc_lines, experimentLines(local_dir));
    EXPECT_EQ(svc_lines.size(), 3u);
}

TEST(SweepServiceTest, WarmCoordinatorLeasesNothing)
{
    std::vector<ExperimentConfig> grid = loopbackGrid();
    std::string dir = freshDir("warm");
    {
        ResultStore cold(2);
        std::string error;
        ASSERT_TRUE(cold.open(dir, &error)) << error;
        cold.prefetch(grid);
    }

    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    SweepCoordinator coordinator(copts, &store, grid);
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::string serve_error;
    // Fully warm: serve() returns without a single worker connecting.
    EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    CoordinatorMetrics m = coordinator.metrics();
    EXPECT_TRUE(m.complete);
    EXPECT_EQ(m.unitsWarm, 3u);
    EXPECT_EQ(m.recordsIngested, 0u);
}

// --- raw-socket fake client for the lease-forfeit tests --------------

int
connectTo(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
        0);
    return fd;
}

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
}

/** Block until one whole frame arrives; EXPECTs on stream health. */
std::string
readFrame(int fd, FrameReader *reader)
{
    std::string payload;
    char buf[4096];
    while (!reader->next(&payload)) {
        EXPECT_FALSE(reader->broken()) << reader->error();
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) {
            ADD_FAILURE() << "connection closed while awaiting a frame";
            return "";
        }
        reader->feed(buf, static_cast<std::size_t>(n));
    }
    return payload;
}

/**
 * Drive the shared part of both forfeit tests: a fake client takes the
 * only lease and misbehaves (@p drop: close the socket; otherwise go
 * silent past the deadline), then a real worker finishes the sweep.
 */
void
runForfeitScenario(bool drop, const std::string &tag)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;

    std::string dir = freshDir(tag);
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    copts.leaseTimeoutMs = 300; // Short: the stall test waits it out.
    SweepCoordinator coordinator(copts, &store, {cfg});
    ASSERT_TRUE(coordinator.start(&error)) << error;

    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    // The fake client legitimately acquires the only lease...
    int fd = connectTo(coordinator.port());
    FrameReader reader;
    sendAll(fd, encodeFrame(makeHello(1, "fake").dump()));
    JsonValue msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    ASSERT_EQ(messageType(msg), "hello_ok");
    sendAll(fd, encodeFrame(makeLeaseRequest().dump()));
    msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    ASSERT_EQ(messageType(msg), "lease");

    // ...and forfeits it: instantly on disconnect, or at the deadline
    // when it simply stops heartbeating.
    if (drop)
        ::close(fd);

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (coordinator.metrics().leasesExpired == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(coordinator.metrics().leasesExpired, 1u);

    // A healthy worker picks the requeued unit up and completes the run.
    WorkerOptions wopts;
    wopts.port = coordinator.port();
    wopts.jobs = 1;
    wopts.name = "rescuer";
    SweepWorker worker(wopts);
    std::string worker_error;
    EXPECT_TRUE(worker.run(&worker_error)) << worker_error;
    if (!drop)
        ::close(fd); // Before join: an open conn holds the done grace.
    serve.join();

    CoordinatorMetrics m = coordinator.metrics();
    EXPECT_TRUE(m.complete);
    EXPECT_EQ(m.unitsDone, 1u);
    EXPECT_EQ(m.recordsIngested, 1u);
    EXPECT_GE(m.leasesExpired, 1u);
}

TEST(SweepServiceTest, DroppedWorkerForfeitsItsLeaseImmediately)
{
    runForfeitScenario(/*drop=*/true, "drop");
}

TEST(SweepServiceTest, SilentWorkerForfeitsItsLeaseAtTheDeadline)
{
    runForfeitScenario(/*drop=*/false, "stall");
}

TEST(SweepServiceTest, PreHelloAndBadVersionPeersAreClosedSafely)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;

    std::string dir = freshDir("prehello");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    SweepCoordinator coordinator(copts, &store, {cfg});
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    // Two protocol violations delivered as ONE write, so the coordinator
    // dispatches both frames from a single recv batch. Regression (ASan
    // catches it): replying to the first violation closed and freed the
    // Conn while the second was still being handled, and the error path
    // then wrote to the freed object; separately, a conn marked closing
    // after its error frame drained was never actually closed, so this
    // recv loop would park forever on a leaked half-open socket.
    const std::string bad_hello =
        "{\"type\":\"hello\",\"proto\":999,\"schema\":999}";
    const std::string batches[] = {
        // Single violations pin the leak: a conn whose error frame fully
        // drained inside sendFrame was marked closing but never closed,
        // so this recv would wait out its full timeout.
        encodeFrame(makeLeaseRequest().dump()),
        encodeFrame(bad_hello),
        // Double violations pin the use-after-free: the reply to the
        // second frame closed and freed the Conn, then wrote to it.
        encodeFrame(makeLeaseRequest().dump()) +
            encodeFrame(makeLeaseRequest().dump()),
        encodeFrame(bad_hello) + encodeFrame(bad_hello),
    };
    for (const std::string &batch : batches) {
        int fd = connectTo(coordinator.port());
        timeval tv{10, 0}; // Fail fast instead of hanging on a leak.
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sendAll(fd, batch);
        FrameReader reader;
        std::string payload;
        char buf[4096];
        std::vector<std::string> types;
        bool closed = false;
        for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n == 0)
                closed = true; // The coordinator really hung up.
            if (n <= 0)
                break;
            reader.feed(buf, static_cast<std::size_t>(n));
            while (reader.next(&payload))
                types.push_back(
                    messageType(JsonValue::parseOrDie(payload)));
        }
        ::close(fd);
        EXPECT_TRUE(closed);
        ASSERT_FALSE(types.empty());
        for (const std::string &type : types)
            EXPECT_EQ(type, "error");
    }

    coordinator.requestStop();
    serve.join();
}

TEST(SweepServiceTest, LateResultForARequeuedUnitDoesNotFakeCompletion)
{
    // Two units; one client leases both, goes silent until they expire
    // (requeue), then — still connected — delivers the result for its
    // SECOND lease, whose index now sits at the front of the pending
    // queue. Regression: the done unit's stale queue entry was re-leased
    // from the kDone state, and the duplicate completion pushed `done`
    // to units.size() with the other unit never simulated, exporting an
    // incomplete store.
    std::vector<ExperimentConfig> grid;
    for (const char *pattern : {"HHMA", "LLLA"}) {
        ExperimentConfig cfg;
        cfg.mix = makeMix(pattern, 0);
        cfg.mechanism = MitigationType::kNone;
        cfg.nRh = 1024;
        cfg.instructions = 2000;
        grid.push_back(cfg);
    }

    // Ground truth for the completeness check.
    std::string local_dir = freshDir("late_local");
    std::string local_json;
    {
        ResultStore local(2);
        std::string error;
        ASSERT_TRUE(local.open(local_dir, &error)) << error;
        local.prefetch(grid);
        local_json = local.toJson().dump();
    }

    std::string dir = freshDir("late");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    copts.leaseTimeoutMs = 300;
    SweepCoordinator coordinator(copts, &store, grid);
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    int fd = connectTo(coordinator.port());
    FrameReader reader;
    sendAll(fd, encodeFrame(makeHello(2, "late").dump()));
    JsonValue msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    ASSERT_EQ(messageType(msg), "hello_ok");

    auto take_lease = [&](std::string *key, ExperimentConfig *config) {
        sendAll(fd, encodeFrame(makeLeaseRequest().dump()));
        JsonValue lease = JsonValue::parseOrDie(readFrame(fd, &reader));
        ASSERT_EQ(messageType(lease), "lease");
        const JsonValue *k = lease.find("key");
        const JsonValue *c = lease.find("config");
        ASSERT_NE(k, nullptr);
        ASSERT_NE(c, nullptr);
        *key = k->asString();
        ASSERT_TRUE(experimentConfigFromJson(*c, config));
    };
    std::string key1, key2;
    ExperimentConfig cfg1, cfg2;
    take_lease(&key1, &cfg1);
    take_lease(&key2, &cfg2);
    ASSERT_NE(key1, key2);

    // Silence until both leases expire and requeue.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (coordinator.metrics().leasesExpired < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_GE(coordinator.metrics().leasesExpired, 2u);

    // Deliver the second lease's result anyway (requeue order put that
    // unit at the queue front, the worst case for the stale entry).
    ExperimentResult result = runExperiment(cfg2);
    sendAll(fd,
            encodeFrame(
                makeResult(key2, experimentResultToJson(cfg2, result))
                    .dump()));
    while (coordinator.metrics().unitsDone < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(coordinator.metrics().unitsDone, 1u);

    // The next lease must be the unfinished unit, never the done one.
    std::string key3;
    ExperimentConfig cfg3;
    take_lease(&key3, &cfg3);
    EXPECT_EQ(key3, key1);
    result = runExperiment(cfg3);
    sendAll(fd,
            encodeFrame(
                makeResult(key3, experimentResultToJson(cfg3, result))
                    .dump()));

    // Completion only now, with both records in the store.
    msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    EXPECT_EQ(messageType(msg), "done");
    ::close(fd); // Before join: an open conn holds the done grace.
    serve.join();

    CoordinatorMetrics m = coordinator.metrics();
    EXPECT_TRUE(m.complete);
    EXPECT_EQ(m.unitsDone, 2u);
    EXPECT_EQ(m.recordsIngested, 2u);
    EXPECT_EQ(store.toJson().dump(), local_json);
}

TEST(SweepServiceTest, HostileCountsAreRefusedAndTheCoordinatorRuns)
{
    // A worker's result payload with a negative count, a solo with a
    // negative instruction count and a hello with a negative protocol
    // version each reached a panicking accessor in the coordinator. Each
    // must be refused while the sweep goes on to finish with the honest
    // result.
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;

    std::string dir = freshDir("hostile");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    SweepCoordinator coordinator(copts, &store, {cfg});
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    {
        int fd = connectTo(coordinator.port());
        FrameReader reader;
        sendAll(fd, encodeFrame("{\"type\":\"hello\",\"proto\":-1,"
                                "\"schema\":-2}"));
        EXPECT_EQ(messageType(JsonValue::parseOrDie(readFrame(fd, &reader))),
                  "error");
        ::close(fd);
    }

    int fd = connectTo(coordinator.port());
    FrameReader reader;
    sendAll(fd, encodeFrame(makeHello(1, "hostile").dump()));
    JsonValue msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    ASSERT_EQ(messageType(msg), "hello_ok");
    sendAll(fd, encodeFrame(makeLeaseRequest().dump()));
    msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    ASSERT_EQ(messageType(msg), "lease");
    const std::string key = msg.get("key").asString();
    ExperimentConfig leased;
    ASSERT_TRUE(experimentConfigFromJson(msg.get("config"), &leased));

    const std::string honest =
        experimentResultToJson(leased, runExperiment(leased)).dump();
    const std::size_t at = honest.find("\"retired\":") + 10;
    const std::string hostile = honest.substr(0, at) + "-1" +
                                honest.substr(honest.find(',', at));
    sendAll(fd, encodeFrame("{\"type\":\"solo\",\"app\":\"mcf_like\","
                            "\"insts\":-1,\"ipc\":0.5}"));
    sendAll(fd, encodeFrame(
                    makeResult(key, JsonValue::parseOrDie(hostile)).dump()));
    sendAll(fd, encodeFrame(
                    makeResult(key, JsonValue::parseOrDie(honest)).dump()));

    // Frames on one connection are handled in order: "done" arrives only
    // once the honest result has been ingested.
    msg = JsonValue::parseOrDie(readFrame(fd, &reader));
    EXPECT_EQ(messageType(msg), "done");
    ::close(fd); // Before join: an open conn holds the done grace.
    serve.join();

    CoordinatorMetrics m = coordinator.metrics();
    EXPECT_TRUE(m.complete);
    EXPECT_EQ(m.unitsDone, 1u);
    EXPECT_EQ(m.recordsIngested, 1u);
    EXPECT_EQ(store.stats().ingested, 1u);
    EXPECT_EQ(experimentLines(dir).size(), 1u);
    EXPECT_EQ(store.toJson().at(0).dump(), honest);
}

TEST(SweepServiceTest, CompletionWaitsForWorkersToDisconnect)
{
    // The coordinator must not exit the instant its buffers drain after
    // the `done` broadcast: a worker whose final frames cross the exit
    // takes an RST that discards its buffered `done` and then retries a
    // dead address. Within the grace window the coordinator stays up —
    // still connected peers hold it — and answers a (re)connecting
    // worker's lease_request with `done` directly.
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;

    std::string dir = freshDir("grace");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    SweepCoordinator coordinator(copts, &store, {cfg});
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    // Client A completes the only unit and reads its `done`...
    int a = connectTo(coordinator.port());
    FrameReader ra;
    sendAll(a, encodeFrame(makeHello(1, "a").dump()));
    ASSERT_EQ(messageType(JsonValue::parseOrDie(readFrame(a, &ra))),
              "hello_ok");
    sendAll(a, encodeFrame(makeLeaseRequest().dump()));
    JsonValue lease = JsonValue::parseOrDie(readFrame(a, &ra));
    ASSERT_EQ(messageType(lease), "lease");
    ExperimentConfig leased;
    ASSERT_TRUE(experimentConfigFromJson(*lease.find("config"), &leased));
    ExperimentResult result = runExperiment(leased);
    sendAll(a, encodeFrame(makeResult(lease.find("key")->asString(),
                                      experimentResultToJson(leased,
                                                             result))
                               .dump()));
    ASSERT_EQ(messageType(JsonValue::parseOrDie(readFrame(a, &ra))),
              "done");

    // ...and while A is still connected, a late client B must be served
    // `done`, not a refused connection against an exited coordinator.
    int b = connectTo(coordinator.port());
    FrameReader rb;
    sendAll(b, encodeFrame(makeHello(1, "b").dump()));
    ASSERT_EQ(messageType(JsonValue::parseOrDie(readFrame(b, &rb))),
              "hello_ok");
    sendAll(b, encodeFrame(makeLeaseRequest().dump()));
    ASSERT_EQ(messageType(JsonValue::parseOrDie(readFrame(b, &rb))),
              "done");

    ::close(a);
    ::close(b);
    serve.join(); // Exits promptly once both peers are gone.
}

TEST(SweepServiceTest, MetricsEscapesHostileWorkerNames)
{
    ExperimentConfig cfg;
    cfg.mix = makeMix("MMLL", 0);
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.instructions = 2000;

    std::string dir = freshDir("promesc");
    ResultStore store(1);
    std::string error;
    ASSERT_TRUE(store.open(dir, &error)) << error;
    CoordinatorOptions copts;
    copts.port = 0;
    SweepCoordinator coordinator(copts, &store, {cfg});
    ASSERT_TRUE(coordinator.start(&error)) << error;
    std::thread serve([&] {
        std::string serve_error;
        EXPECT_TRUE(coordinator.serve(&serve_error)) << serve_error;
    });

    // A worker name with every character that can break the Prometheus
    // text format: '"' ends the label, '\n' ends the line, '\' escapes.
    int wfd = connectTo(coordinator.port());
    FrameReader reader;
    sendAll(wfd, encodeFrame(makeHello(1, "w\"evil\\\n1").dump()));
    JsonValue msg = JsonValue::parseOrDie(readFrame(wfd, &reader));
    ASSERT_EQ(messageType(msg), "hello_ok");

    int hfd = connectTo(coordinator.port());
    sendAll(hfd, "GET /metrics HTTP/1.1\r\n\r\n");
    std::string page;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(hfd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        page.append(buf, static_cast<std::size_t>(n));
    }
    ::close(hfd);
    // The raw name must not appear; the escaped label must.
    EXPECT_EQ(page.find("w\"evil"), std::string::npos) << page;
    EXPECT_NE(page.find("worker=\"w\\\"evil\\\\\\n1\""),
              std::string::npos)
        << page;

    coordinator.requestStop();
    serve.join();
    ::close(wfd);
}

/** A loopback port nothing listens on (bound, then released). */
std::uint16_t
closedPort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0)
        addr.sin_port = 0;
    ::close(fd);
    return ntohs(addr.sin_port);
}

TEST(SweepServiceTest, InProcessWorkerKeepsTheStorePersistingSolos)
{
    // A worker in the same process as an open store must not take over
    // where the store's freshly computed solo IPCs go: after the worker
    // exits, the store still persists them.
    std::string dir = freshDir("solo_sink");
    ExperimentConfig cfg = loopbackGrid().front();
    cfg.instructions = 3313; // Not in the process-wide solo cache yet.
    const std::size_t solos = benignApps(cfg.mix).size();
    {
        ResultStore store(1);
        std::string error;
        ASSERT_TRUE(store.open(dir, &error)) << error;

        WorkerOptions wopts;
        wopts.port = closedPort();
        ASSERT_NE(wopts.port, 0);
        wopts.maxConnectFailures = 1;
        SweepWorker worker(wopts);
        EXPECT_FALSE(worker.run(&error));

        store.prefetch({cfg});
        EXPECT_EQ(store.stats().soloComputed, solos);
    }

    ResultStore reopened(1);
    std::string error;
    ASSERT_TRUE(reopened.open(dir, &error)) << error;
    EXPECT_EQ(reopened.stats().soloLoaded, solos);
}

TEST(SweepServiceTest, SecondStoreWriterIsRefused)
{
    std::string dir = freshDir("flock");
    ResultStore first(1);
    std::string error;
    ASSERT_TRUE(first.open(dir, &error)) << error;

    // Same process, second descriptor: flock is per-open-file, so this
    // models a second coordinator racing the first.
    ResultStore second(1);
    EXPECT_FALSE(second.open(dir, &error));
    EXPECT_NE(error.find("locked"), std::string::npos) << error;
}

} // namespace
} // namespace bh::svc
