#include "svc/coordinator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/log.h"
#include "sim/sweep.h"
#include "svc/protocol.h"

namespace bh::svc {

namespace {

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            // bh-audit: skip(clock) -- lease wall-clock, outside the deterministic core
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Format a double without trailing-zero noise for /metrics. */
std::string
metric(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Escape a label value per the Prometheus text exposition format. The
 * worker name is peer-supplied; an unescaped '"' or newline in it would
 * corrupt the whole /metrics page.
 */
std::string
promLabel(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
        }
    }
    return out;
}

} // namespace

SweepCoordinator::SweepCoordinator(CoordinatorOptions opts,
                                   ResultStore *result_store,
                                   const std::vector<ExperimentConfig> &grid)
    : options(std::move(opts)), store(result_store)
{
    // Content-address dedup happens here, once: two figures sweeping the
    // same point become one leasable unit, exactly as they become one
    // record in the store. The store's defaults (--channels, --ranks)
    // fold in first, so leases carry what a local run would simulate.
    std::vector<ExperimentConfig> folded;
    for (const ExperimentConfig &config : grid)
        folded.push_back(store != nullptr ? store->resolve(config) : config);
    for (ExperimentConfig &config : expandWorkUnits(folded)) {
        std::string key = experimentKey(config);
        unitByKey.emplace(key, units.size());
        units.push_back(Unit{std::move(config), std::move(key),
                             Unit::State::kPending, -1, 0, 0});
    }
}

SweepCoordinator::~SweepCoordinator()
{
    for (auto &entry : conns)
        ::close(entry.second.fd);
    if (listenFd >= 0)
        ::close(listenFd);
}

bool
SweepCoordinator::start(std::string *error)
{
    // Warm units resolve before anything is leased: a store that already
    // holds a point's record never re-simulates it, on any machine.
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (store != nullptr &&
            store->lookup(units[i].config) != nullptr) {
            units[i].state = Unit::State::kDone;
            ++done;
            ++warm;
        } else {
            pendingQ.push_back(i);
        }
    }

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(options.port);
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd, 64) != 0) {
        if (error)
            *error = "cannot listen on port " +
                     std::to_string(options.port) + ": " +
                     std::strerror(errno);
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort = ntohs(addr.sin_port);
    setNonBlocking(listenFd);

    startedAtMs = nowMs();
    if (done == units.size())
        completedAtMs = startedAtMs; // Fully warm: only linger remains.
    publishMetrics();
    BH_LOG("coordinator: %zu unit(s) (%zu warm) on port %u",
           units.size(), warm, boundPort);
    return true;
}

bool
SweepCoordinator::serve(std::string *error)
{
    if (listenFd < 0) {
        if (error)
            *error = "serve() before start()";
        return false;
    }

    while (!stopRequested.load()) {
        // Exit condition: everything done, every framed peer's `done`
        // frame flushed, every worker disconnected (or the grace window
        // elapsed — see doneGraceMs), and the HTTP linger elapsed.
        if (completedAtMs != 0) {
            bool drained = true;
            std::size_t peers = 0;
            for (const auto &entry : conns) {
                if (entry.second.kind == Conn::Kind::kHttp)
                    continue;
                ++peers;
                if (!entry.second.out.empty())
                    drained = false;
            }
            std::uint64_t now = nowMs();
            bool workers_gone =
                peers == 0 ||
                now >= completedAtMs + options.doneGraceMs;
            if (drained && workers_gone &&
                now >= completedAtMs + options.lingerMs)
                break;
        }

        std::vector<pollfd> fds;
        fds.push_back(pollfd{listenFd, POLLIN, 0});
        for (auto &entry : conns) {
            short events = POLLIN;
            if (!entry.second.out.empty())
                events |= POLLOUT;
            fds.push_back(pollfd{entry.second.fd, events, 0});
        }
        int timeout = 200; // Lease sweeps + stop checks stay responsive.
        int ready = ::poll(fds.data(), fds.size(), timeout);
        if (ready < 0 && errno != EINTR) {
            if (error)
                *error = std::string("poll: ") + std::strerror(errno);
            return false;
        }

        if (fds[0].revents & POLLIN)
            acceptClients();

        // Collect fds first: handlers may close (erase) connections.
        std::vector<int> readable, writable, broken;
        for (std::size_t i = 1; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                // POLLHUP can still deliver buffered bytes; read first
                // and let the 0-byte read close it.
                if (!(fds[i].revents & POLLIN)) {
                    broken.push_back(fds[i].fd);
                    continue;
                }
            }
            if (fds[i].revents & POLLIN)
                readable.push_back(fds[i].fd);
            else if (fds[i].revents & POLLOUT)
                writable.push_back(fds[i].fd);
        }
        for (int fd : broken)
            closeConn(fd);
        for (int fd : readable) {
            auto it = conns.find(fd);
            if (it != conns.end())
                readFrom(it->second);
        }
        for (int fd : writable) {
            auto it = conns.find(fd);
            if (it != conns.end())
                flushOut(it->second);
        }

        sweepExpiredLeases();
        grantLeases();
        publishMetrics();
    }
    publishMetrics();
    return true;
}

void
SweepCoordinator::acceptClients()
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN (or transient error): nothing more now.
        setNonBlocking(fd);
        Conn conn;
        conn.fd = fd;
        conn.connectedAtMs = nowMs();
        conns.emplace(fd, std::move(conn));
    }
}

void
SweepCoordinator::readFrom(Conn &conn)
{
    char buf[65536];
    for (;;) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            if (conn.kind == Conn::Kind::kUnknown) {
                conn.sniff.append(buf, static_cast<std::size_t>(n));
                if (conn.sniff.size() < 4)
                    continue;
                // An HTTP request line can never be a valid frame here:
                // "GET " as a length prefix would announce ~0.5 GB.
                if (conn.sniff.compare(0, 4, "GET ") == 0 ||
                    conn.sniff.compare(0, 4, "HEAD") == 0 ||
                    conn.sniff.compare(0, 4, "POST") == 0) {
                    conn.kind = Conn::Kind::kHttp;
                    conn.httpBuf = std::move(conn.sniff);
                } else {
                    conn.kind = Conn::Kind::kFramed;
                    conn.reader.feed(conn.sniff.data(),
                                     conn.sniff.size());
                }
                conn.sniff.clear();
            } else if (conn.kind == Conn::Kind::kHttp) {
                conn.httpBuf.append(buf, static_cast<std::size_t>(n));
            } else {
                conn.reader.feed(buf, static_cast<std::size_t>(n));
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        closeConn(conn.fd); // EOF or hard error: lost worker.
        return;
    }
    if (conn.kind == Conn::Kind::kHttp)
        handleHttp(conn);
    else if (conn.kind == Conn::Kind::kFramed)
        dispatchFrames(conn);
}

void
SweepCoordinator::dispatchFrames(Conn &conn)
{
    int fd = conn.fd;
    std::string payload;
    while (true) {
        auto it = conns.find(fd);
        if (it == conns.end())
            return; // A handler closed the connection.
        if (!it->second.reader.next(&payload))
            break;
        JsonValue msg;
        std::string parse_error;
        if (!parseMessage(payload, &msg, &parse_error)) {
            // Garbage inside a well-formed frame: this peer is not
            // speaking the protocol; drop it (its leases requeue).
            std::fprintf(stderr,
                         "coordinator: dropping peer (bad message: "
                         "%s)\n",
                         parse_error.c_str());
            closeConn(fd);
            return;
        }
        handleMessage(it->second, msg);
    }
    auto it = conns.find(fd);
    if (it != conns.end() && it->second.reader.broken()) {
        std::fprintf(stderr, "coordinator: dropping peer (%s)\n",
                     it->second.reader.error().c_str());
        closeConn(fd);
    }
}

void
SweepCoordinator::handleMessage(Conn &conn, const JsonValue &msg)
{
    std::string type = messageType(msg);
    if (type == "hello") {
        const JsonValue *proto = msg.find("proto");
        const JsonValue *schema = msg.find("schema");
        const JsonValue *name = msg.find("name");
        std::uint64_t peer_proto =
            proto != nullptr && proto->isU64() ? proto->asU64() : 0;
        std::uint64_t peer_schema =
            schema != nullptr && schema->isU64() ? schema->asU64() : 0;
        if (peer_proto != kProtocolVersion ||
            peer_schema != ResultStore::kSchemaVersion) {
            // A worker from different sources would fill the store with
            // records this coordinator cannot reproduce or even parse.
            // closing must be set BEFORE sendFrame: flushOut closes (and
            // erases) the conn the moment the error frame drains, so
            // `conn` may be dangling once sendFrame returns.
            conn.closing = true;
            sendFrame(conn,
                      makeError("version mismatch: coordinator proto " +
                                std::to_string(kProtocolVersion) +
                                " schema " +
                                std::to_string(
                                    ResultStore::kSchemaVersion)));
            return;
        }
        conn.helloDone = true;
        if (name != nullptr && name->isString())
            conn.name = name->asString();
        sendFrame(conn, makeHelloOk());
        return;
    }
    if (!conn.helloDone) {
        conn.closing = true; // Before sendFrame: see version-mismatch path.
        sendFrame(conn, makeError("hello required first"));
        return;
    }
    if (type == "lease_request") {
        ++conn.waitingRequests;
        waiters.push_back(conn.fd);
        // grantLeases() runs at the bottom of the poll iteration; if
        // everything is already done, answer immediately so an idle
        // late-joining worker exits instead of waiting forever.
        if (done == units.size()) {
            --conn.waitingRequests;
            waiters.pop_back();
            sendFrame(conn, makeDone());
        }
        return;
    }
    if (type == "heartbeat") {
        const JsonValue *key = msg.find("key");
        if (key == nullptr || !key->isString())
            return;
        auto it = unitByKey.find(key->asString());
        if (it == unitByKey.end())
            return;
        Unit &unit = units[it->second];
        // Only the current owner extends the deadline: a heartbeat from
        // a worker whose lease already expired must not steal the unit
        // back from its new owner.
        if (unit.state == Unit::State::kLeased && unit.owner == conn.fd)
            unit.deadlineMs = nowMs() + options.leaseTimeoutMs;
        return;
    }
    if (type == "result") {
        const JsonValue *key = msg.find("key");
        const JsonValue *payload = msg.find("payload");
        if (key == nullptr || !key->isString() || payload == nullptr)
            return;
        auto it = unitByKey.find(key->asString());
        if (it == unitByKey.end()) {
            BH_LOG("coordinator: result for unknown key %s ignored",
                   key->asString().c_str());
            return;
        }
        Unit &unit = units[it->second];
        if (unit.state == Unit::State::kDone)
            return; // Duplicate from a re-leased unit's first owner.
        std::string ingest_error;
        if (store != nullptr &&
            !store->ingest(unit.config, *payload, &ingest_error)) {
            std::fprintf(stderr, "coordinator: %s\n",
                         ingest_error.c_str());
            return; // Keep the lease; deadline expiry will requeue.
        }
        ++ingested;
        ++conn.resultsIngested;
        conn.leased.erase(unit.key);
        noteDone(it->second);
        return;
    }
    if (type == "solo") {
        const JsonValue *app = msg.find("app");
        const JsonValue *insts = msg.find("insts");
        const JsonValue *ipc = msg.find("ipc");
        if (app == nullptr || !app->isString() || insts == nullptr ||
            !insts->isU64() || ipc == nullptr || !ipc->isNumber())
            return;
        if (store != nullptr)
            store->ingestSolo(app->asString(), insts->asU64(),
                              ipc->asDouble());
        ++soloSeen;
        return;
    }
    BH_LOG("coordinator: ignoring unknown message type \"%s\"",
           type.c_str());
}

void
SweepCoordinator::noteDone(std::size_t index)
{
    Unit &unit = units[index];
    if (unit.owner >= 0) {
        auto owner = conns.find(unit.owner);
        if (owner != conns.end())
            owner->second.leased.erase(unit.key);
    }
    unit.state = Unit::State::kDone;
    unit.owner = -1;
    // The unit may still sit in pendingQ: its lease expired (requeue)
    // and then the original owner's result arrived anyway. Purge it so
    // grantLeases never re-serves a finished unit.
    pendingQ.erase(std::remove(pendingQ.begin(), pendingQ.end(), index),
                   pendingQ.end());
    ++done;
    if (done == units.size()) {
        completedAtMs = nowMs();
        // Tell every connected worker to wind down; workers with an
        // in-flight duplicate simply see their late result ignored.
        // sendFrame can close (erase) a conn on send failure, so walk a
        // snapshot of fds rather than live map iterators.
        std::vector<int> fds;
        for (auto &entry : conns) {
            entry.second.waitingRequests = 0;
            if (entry.second.kind == Conn::Kind::kFramed &&
                entry.second.helloDone)
                fds.push_back(entry.first);
        }
        waiters.clear();
        for (int fd : fds) {
            auto peer = conns.find(fd);
            if (peer != conns.end())
                sendFrame(peer->second, makeDone());
        }
        BH_LOG("coordinator: all %zu unit(s) done (%zu ingested, "
               "%zu warm, %zu lease expiries)",
               units.size(), ingested, warm, expired);
    }
}

void
SweepCoordinator::requeueUnit(std::size_t index)
{
    Unit &unit = units[index];
    if (unit.state != Unit::State::kLeased)
        return;
    if (unit.owner >= 0) {
        auto owner = conns.find(unit.owner);
        if (owner != conns.end())
            owner->second.leased.erase(unit.key);
    }
    unit.state = Unit::State::kPending;
    unit.owner = -1;
    unit.deadlineMs = 0;
    ++unit.expiries;
    ++expired;
    // Front of the queue: a requeued unit is the oldest outstanding
    // work, and finishing it is what unblocks run completion.
    pendingQ.push_front(index);
}

void
SweepCoordinator::sweepExpiredLeases()
{
    std::uint64_t now = nowMs();
    for (std::size_t i = 0; i < units.size(); ++i)
        if (units[i].state == Unit::State::kLeased &&
            now >= units[i].deadlineMs) {
            BH_LOG("coordinator: lease expired on %s",
                   units[i].key.c_str());
            requeueUnit(i);
        }
}

void
SweepCoordinator::grantLeases()
{
    while (!pendingQ.empty() && !waiters.empty()) {
        // Only a kPending unit may be leased. A stale queue entry (the
        // unit completed or was re-leased while its index sat queued)
        // would otherwise be granted from the kDone state, and the
        // duplicate result's noteDone() would push `done` past the real
        // count — signalling completion with units still unfinished.
        std::size_t index = pendingQ.front();
        if (units[index].state != Unit::State::kPending) {
            pendingQ.pop_front();
            continue;
        }
        int fd = waiters.front();
        waiters.pop_front();
        auto it = conns.find(fd);
        if (it == conns.end() || it->second.closing ||
            it->second.waitingRequests <= 0)
            continue; // Stale entry for a dead or drained connection.
        Conn &conn = it->second;
        --conn.waitingRequests;
        pendingQ.pop_front();
        Unit &unit = units[index];
        unit.state = Unit::State::kLeased;
        unit.owner = fd;
        unit.deadlineMs = nowMs() + options.leaseTimeoutMs;
        conn.leased.insert(unit.key);
        sendFrame(conn,
                  makeLease(unit.key, unit.config, options.leaseTimeoutMs));
    }
}

void
SweepCoordinator::handleHttp(Conn &conn)
{
    std::size_t header_end = conn.httpBuf.find("\r\n\r\n");
    if (header_end == std::string::npos) {
        if (conn.httpBuf.size() > 16384)
            closeConn(conn.fd); // Not a request we will ever serve.
        return;
    }
    std::size_t line_end = conn.httpBuf.find("\r\n");
    std::string line = conn.httpBuf.substr(0, line_end);
    std::string path;
    std::size_t sp1 = line.find(' ');
    std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos)
        path = line.substr(sp1 + 1, sp2 - sp1 - 1);

    std::string body, content_type = "text/plain; charset=utf-8";
    int status = 200;
    const char *status_text = "OK";
    if (path == "/progress") {
        body = progressJson();
        content_type = "application/json";
    } else if (path == "/metrics") {
        body = metricsText();
    } else {
        status = 404;
        status_text = "Not Found";
        body = "try /progress or /metrics\n";
    }
    std::string response = "HTTP/1.1 " + std::to_string(status) + " " +
                           status_text +
                           "\r\nContent-Type: " + content_type +
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    queueBytes(conn, response);
    conn.closing = true;
    flushOut(conn);
}

std::size_t
SweepCoordinator::outstandingLeases() const
{
    std::size_t outstanding = 0;
    for (const Unit &unit : units)
        if (unit.state == Unit::State::kLeased)
            ++outstanding;
    return outstanding;
}

std::string
SweepCoordinator::progressJson() const
{
    std::size_t total = units.size();
    JsonValue doc = JsonValue::object();
    doc.set("total", total);
    doc.set("done", done);
    doc.set("warm", warm);
    doc.set("leased", outstandingLeases());
    doc.set("pending", pendingQ.size());
    doc.set("percent",
            total == 0 ? 100.0 : 100.0 * static_cast<double>(done) /
                                     static_cast<double>(total));
    doc.set("leases_expired", expired);
    doc.set("records_ingested", ingested);
    doc.set("complete", done == units.size());
    std::size_t workers = 0;
    for (const auto &entry : conns)
        if (entry.second.kind == Conn::Kind::kFramed &&
            entry.second.helloDone)
            ++workers;
    doc.set("workers", workers);
    return doc.dump() + "\n";
}

std::string
SweepCoordinator::metricsText() const
{
    std::uint64_t now = nowMs();
    double elapsed =
        static_cast<double>(now - startedAtMs) / 1000.0;
    // ETA from the fleet-wide ingest rate. Warm units completed in zero
    // time and would fake an infinite rate; count only real ingests.
    double rate = elapsed > 0.0
                      ? static_cast<double>(ingested) / elapsed
                      : 0.0;
    std::size_t remaining = units.size() - done;
    double eta = rate > 0.0 ? static_cast<double>(remaining) / rate
                            : 0.0;

    std::string out;
    out += "bh_sweep_units_total " + std::to_string(units.size()) + "\n";
    out += "bh_sweep_units_done " + std::to_string(done) + "\n";
    out += "bh_sweep_units_warm " + std::to_string(warm) + "\n";
    out += "bh_sweep_leases_outstanding " +
           std::to_string(outstandingLeases()) + "\n";
    out += "bh_sweep_leases_expired " + std::to_string(expired) + "\n";
    out += "bh_sweep_records_ingested " + std::to_string(ingested) + "\n";
    out += "bh_sweep_solo_records_ingested " + std::to_string(soloSeen) +
           "\n";
    std::size_t workers = 0;
    for (const auto &entry : conns)
        if (entry.second.kind == Conn::Kind::kFramed &&
            entry.second.helloDone)
            ++workers;
    out += "bh_sweep_workers_connected " + std::to_string(workers) + "\n";
    out += "bh_sweep_elapsed_seconds " + metric(elapsed) + "\n";
    out += "bh_sweep_eta_seconds " + metric(eta) + "\n";
    for (const auto &entry : conns) {
        const Conn &conn = entry.second;
        if (conn.kind != Conn::Kind::kFramed || !conn.helloDone)
            continue;
        double conn_elapsed =
            static_cast<double>(now - conn.connectedAtMs) / 1000.0;
        double throughput =
            conn_elapsed > 0.0
                ? static_cast<double>(conn.resultsIngested) / conn_elapsed
                : 0.0;
        std::string label =
            conn.name.empty() ? "fd" + std::to_string(conn.fd)
                              : conn.name;
        out += "bh_sweep_worker_throughput_per_s{worker=\"" +
               promLabel(label) + "\"} " + metric(throughput) + "\n";
    }
    return out;
}

void
SweepCoordinator::sendFrame(Conn &conn, const JsonValue &msg)
{
    queueBytes(conn, encodeFrame(msg.dump()));
    flushOut(conn);
}

void
SweepCoordinator::queueBytes(Conn &conn, const std::string &bytes)
{
    conn.out += bytes;
}

void
SweepCoordinator::flushOut(Conn &conn)
{
    while (!conn.out.empty()) {
        ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // POLLOUT will resume the drain.
        if (n < 0 && errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }
    if (conn.closing)
        closeConn(conn.fd);
}

void
SweepCoordinator::closeConn(int fd)
{
    auto it = conns.find(fd);
    if (it == conns.end())
        return;
    // A dropped worker's leases requeue immediately — no need to wait
    // out the deadline when the kernel already told us the peer is gone.
    std::vector<std::string> keys(it->second.leased.begin(),
                                  it->second.leased.end());
    ::close(fd);
    conns.erase(it);
    for (const std::string &key : keys) {
        auto unit = unitByKey.find(key);
        if (unit != unitByKey.end()) {
            BH_LOG("coordinator: worker dropped, requeueing %s",
                   key.c_str());
            requeueUnit(unit->second);
        }
    }
}

void
SweepCoordinator::publishMetrics()
{
    CoordinatorMetrics m;
    m.unitsTotal = units.size();
    m.unitsDone = done;
    m.unitsWarm = warm;
    m.leasesOutstanding = outstandingLeases();
    m.leasesExpired = expired;
    m.recordsIngested = ingested;
    m.soloIngested = soloSeen;
    for (const auto &entry : conns)
        if (entry.second.kind == Conn::Kind::kFramed &&
            entry.second.helloDone)
            ++m.workersConnected;
    m.complete = done == units.size();
    std::lock_guard<std::mutex> lock(metricsMutex);
    published = m;
}

CoordinatorMetrics
SweepCoordinator::metrics() const
{
    std::lock_guard<std::mutex> lock(metricsMutex);
    return published;
}

} // namespace bh::svc
