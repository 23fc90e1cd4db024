#include "svc/worker.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
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

} // namespace

SweepWorker::SweepWorker(WorkerOptions opts) : options(std::move(opts))
{
    if (this->options.jobs == 0)
        this->options.jobs = 1;
}

void
SweepWorker::queueFrame(const JsonValue &msg)
{
    std::string frame = encodeFrame(msg.dump());
    std::lock_guard<std::mutex> lock(outboxMutex);
    outbox.push_back(std::move(frame));
}

void
SweepWorker::computeLoop()
{
    // This thread's leases run under one context: its solo IPCs go to
    // the coordinator, and its progress hook heartbeats the current
    // lease (the hook only fires inside runExperiment(lease.config)).
    Lease lease;
    std::uint64_t lastHeartbeatMs = 0;
    RunContext ctx;
    ctx.checkpoint = options.checkpoint;
    ctx.soloSink = [this](const std::string &app, std::uint64_t insts,
                          double ipc) {
        queueFrame(makeSolo(app, insts, ipc));
    };
    ctx.progress.everyInsts = options.heartbeatEveryInsts;
    ctx.progress.fn = [this, &lease, &lastHeartbeatMs](
                          const ExperimentConfig &, std::uint64_t,
                          std::uint64_t) {
        std::uint64_t now = nowMs();
        if (now - lastHeartbeatMs < options.heartbeatMinIntervalMs)
            return;
        lastHeartbeatMs = now;
        queueFrame(makeHeartbeat(lease.key));
    };
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(workMutex);
            workCv.wait(lock, [this] {
                return !workQueue.empty() || shuttingDown;
            });
            if (workQueue.empty())
                return; // shuttingDown and drained.
            lease = std::move(workQueue.front());
            workQueue.pop_front();
        }
        ExperimentResult result = runExperiment(lease.config, ctx);
        queueFrame(makeResult(
            lease.key, experimentResultToJson(lease.config, result)));
        completedCount.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(workMutex);
            --inflight;
        }
    }
}

int
SweepWorker::connectOnce(std::string *error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *list = nullptr;
    int rc = ::getaddrinfo(options.host.c_str(),
                           std::to_string(options.port).c_str(), &hints,
                           &list);
    if (rc != 0) {
        if (error)
            *error = options.host + ": " + ::gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = list; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    if (fd < 0 && error)
        *error = "cannot connect to " + options.host + ":" +
                 std::to_string(options.port) + ": " +
                 std::strerror(errno);
    ::freeaddrinfo(list);
    return fd;
}

bool
SweepWorker::serveConnection(int fd, std::string *error)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

    FrameReader reader;
    std::string sendBuf = encodeFrame(makeHello(
        options.jobs, options.name).dump());
    bool helloOk = false;
    unsigned outstandingRequests = 0;

    while (!stopRequested.load()) {
        // Keep the coordinator saturated: one unanswered lease_request
        // per idle compute thread. The coordinator parks the surplus and
        // answers the moment a unit frees up (or with `done`).
        if (helloOk && !doneReceived.load()) {
            std::lock_guard<std::mutex> lock(workMutex);
            while (inflight + outstandingRequests < options.jobs) {
                sendBuf += encodeFrame(makeLeaseRequest().dump());
                ++outstandingRequests;
            }
        }
        // Heartbeats/results/solos queued by compute threads; the
        // outbox is gated on hello_ok so nothing precedes the handshake.
        if (helloOk) {
            std::lock_guard<std::mutex> lock(outboxMutex);
            while (!outbox.empty()) {
                sendBuf += outbox.front();
                outbox.pop_front();
            }
        }
        while (!sendBuf.empty()) {
            ssize_t n = ::send(fd, sendBuf.data(), sendBuf.size(),
                               MSG_NOSIGNAL);
            if (n > 0) {
                sendBuf.erase(0, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n < 0 && errno == EINTR)
                continue;
            return false; // Peer gone mid-send: reconnect.
        }

        if (doneReceived.load()) {
            std::lock_guard<std::mutex> lock(workMutex);
            if (inflight == 0 && sendBuf.empty() && outbox.empty())
                return true; // Every duplicate result flushed too.
        }

        pollfd pfd{fd, POLLIN, 0};
        if (!sendBuf.empty())
            pfd.events |= POLLOUT;
        int ready = ::poll(&pfd, 1, 100);
        if (ready < 0 && errno != EINTR)
            return false;
        if (ready <= 0)
            continue;
        if (pfd.revents & (POLLERR | POLLNVAL))
            return false;
        if (!(pfd.revents & POLLIN)) {
            if (pfd.revents & POLLHUP)
                return false;
            continue;
        }

        char buf[65536];
        for (;;) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n > 0) {
                reader.feed(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n < 0 && errno == EINTR)
                continue;
            return false; // EOF or hard error.
        }
        if (reader.broken()) {
            fatalError = "coordinator sent " + reader.error();
            return false;
        }

        std::string payload;
        while (reader.next(&payload)) {
            JsonValue msg;
            std::string parse_error;
            if (!parseMessage(payload, &msg, &parse_error)) {
                fatalError = "coordinator sent garbage: " + parse_error;
                return false;
            }
            std::string type = messageType(msg);
            if (type == "hello_ok") {
                helloOk = true;
            } else if (type == "lease") {
                const JsonValue *key = msg.find("key");
                const JsonValue *config = msg.find("config");
                Lease lease;
                if (key == nullptr || !key->isString() ||
                    config == nullptr ||
                    !experimentConfigFromJson(*config, &lease.config)) {
                    fatalError = "malformed lease from coordinator";
                    return false;
                }
                lease.key = key->asString();
                BH_LOG("worker: leased %s", lease.key.c_str());
                {
                    std::lock_guard<std::mutex> lock(workMutex);
                    if (outstandingRequests > 0)
                        --outstandingRequests;
                    ++inflight;
                    workQueue.push_back(std::move(lease));
                }
                workCv.notify_one();
            } else if (type == "done") {
                doneReceived.store(true);
            } else if (type == "error") {
                const JsonValue *message = msg.find("message");
                fatalError = "coordinator refused us: " +
                             (message != nullptr && message->isString()
                                  ? message->asString()
                                  : std::string("(no message)"));
                return false;
            }
            // Unknown types are ignored: forward compatibility.
        }
    }
    if (error && fatalError.empty())
        fatalError = "stopped";
    return false;
}

bool
SweepWorker::run(std::string *error)
{
    std::vector<std::thread> computeThreads;
    for (unsigned i = 0; i < options.jobs; ++i)
        computeThreads.emplace_back([this] { computeLoop(); });

    bool finished = false;
    unsigned failures = 0;
    std::uint64_t backoffMs = 250;
    while (!finished && !stopRequested.load() && fatalError.empty()) {
        std::string connect_error;
        int fd = connectOnce(&connect_error);
        if (fd < 0) {
            // The run is over once `done` arrived; a coordinator that
            // exits right after saying so is not a failure.
            if (doneReceived.load()) {
                std::lock_guard<std::mutex> lock(workMutex);
                if (inflight == 0) {
                    finished = true;
                    break;
                }
            }
            ++failures;
            if (options.maxConnectFailures != 0 &&
                failures >= options.maxConnectFailures) {
                fatalError = connect_error + " (gave up after " +
                             std::to_string(failures) + " attempts)";
                break;
            }
            BH_LOG("worker: %s; retrying in %llu ms",
                   connect_error.c_str(),
                   static_cast<unsigned long long>(backoffMs));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffMs));
            backoffMs = std::min(backoffMs * 2, options.maxBackoffMs);
            continue;
        }
        failures = 0;
        backoffMs = 250;
        finished = serveConnection(fd, error);
        ::close(fd);
    }

    {
        std::lock_guard<std::mutex> lock(workMutex);
        shuttingDown = true;
    }
    workCv.notify_all();
    for (std::thread &t : computeThreads)
        t.join();

    if (!finished && error != nullptr)
        *error = fatalError.empty() ? "stopped before completion"
                                    : fatalError;
    return finished;
}

} // namespace bh::svc
