/**
 * @file
 * Lease-based sweep coordinator: one store, many machines.
 *
 * The SweepCoordinator turns a sweep grid into a simulation service. It
 * expands the grid into content-address-unique work units, marks the
 * ones its ResultStore already holds as done (a warm coordinator leases
 * nothing), and serves the rest to SweepWorkers over TCP:
 *
 *   unit state machine:   pending ──lease──> leased ──result──> done
 *                            ^                  │
 *                            └──expiry/drop─────┘   (++leasesExpired)
 *
 * A lease carries the full resolved ExperimentConfig and a deadline;
 * worker heartbeats push the deadline out while a long simulation runs.
 * A lease whose deadline passes — or whose worker's connection drops —
 * requeues, so a SIGKILLed machine costs one lease interval, not a
 * shard. Results are ingested into the (single-writer, flock-guarded)
 * ResultStore with the existing content-address dedup: the first record
 * for a unit wins, duplicates from a re-leased unit's original owner are
 * ignored, and the final export is byte-identical to a single-process
 * run of the same grid.
 *
 * The whole coordinator is ONE thread: a poll() event loop owns every
 * socket, the unit table, and the store — there is no locking around
 * ingest because nothing races it. The same listening port also answers
 * plain HTTP (the first bytes of a connection distinguish "GET " from a
 * frame header): `/progress` returns a JSON progress document and
 * `/metrics` a Prometheus-style text page (leases outstanding/expired,
 * records ingested, per-worker throughput, ETA). Metrics snapshots are
 * published under a mutex so tests and embedders can read them from
 * other threads.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "sim/result_store.h"
#include "svc/frame.h"

namespace bh::svc {

/** Coordinator tuning. */
struct CoordinatorOptions
{
    /** TCP listen port; 0 binds an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /**
     * Lease lifetime. Each heartbeat (and the grant itself) arms the
     * unit's deadline this far out; a worker that goes silent longer
     * forfeits the unit. Must comfortably exceed the worker's heartbeat
     * interval.
     */
    std::uint64_t leaseTimeoutMs = 30000;
    /**
     * How long to keep answering HTTP after the last unit completes, so
     * dashboards and CI can observe the 100% state. Framed workers are
     * told `done` immediately either way.
     */
    std::uint64_t lingerMs = 0;
    /**
     * After the last unit completes, keep serving until every worker
     * connection has closed (workers disconnect as soon as they process
     * `done`), bounded by this grace window. Exiting the instant the
     * out-buffers drain loses a race: a worker whose lease-request
     * replenish crosses the exit takes an RST that discards its
     * buffered `done`, and it then retries a dead address until its
     * connect-failure cap. Within the grace a reconnecting worker gets
     * `done` answered directly.
     */
    std::uint64_t doneGraceMs = 3000;
};

/** Live counters, readable from any thread via metrics(). */
struct CoordinatorMetrics
{
    std::size_t unitsTotal = 0;
    std::size_t unitsDone = 0;
    std::size_t unitsWarm = 0; ///< Done before any lease (store hits).
    std::size_t leasesOutstanding = 0;
    std::size_t leasesExpired = 0;
    std::size_t recordsIngested = 0;
    std::size_t soloIngested = 0;
    std::size_t workersConnected = 0;
    bool complete = false;
};

/** Single-threaded TCP/HTTP coordinator over a ResultStore. */
class SweepCoordinator
{
  public:
    /**
     * @param store Open (or at least constructed) store; all ingest goes
     *        through it. The coordinator does not own it.
     * @param grid  The experiment points to serve; resolved through the
     *        store's defaults (ResultStore::resolve) and deduplicated
     *        internally (expandWorkUnits).
     */
    SweepCoordinator(CoordinatorOptions options, ResultStore *store,
                     const std::vector<ExperimentConfig> &grid);
    ~SweepCoordinator();

    SweepCoordinator(const SweepCoordinator &) = delete;
    SweepCoordinator &operator=(const SweepCoordinator &) = delete;

    /**
     * Bind + listen, and resolve warm units against the store.
     * @return false (with @p error set) when the port cannot be bound.
     */
    bool start(std::string *error);

    /** The bound TCP port (after start(); ephemeral ports resolved). */
    std::uint16_t port() const { return boundPort; }

    /**
     * Run the event loop until every unit is done (plus linger), or
     * requestStop(). Returns false (with @p error) only on listener
     * failure; worker churn is handled, not fatal.
     */
    bool serve(std::string *error);

    /** Ask a serve() running on another thread to wind down. */
    void requestStop() { stopRequested.store(true); }

    /** Thread-safe counter snapshot (tests, embedders). */
    CoordinatorMetrics metrics() const;

  private:
    struct Unit
    {
        ExperimentConfig config;
        std::string key;
        enum class State
        {
            kPending,
            kLeased,
            kDone,
        } state = State::kPending;
        int owner = -1; ///< Conn fd holding the lease.
        std::uint64_t deadlineMs = 0;
        unsigned expiries = 0;
    };

    struct Conn
    {
        int fd = -1;
        enum class Kind
        {
            kUnknown, ///< Sniffing: first bytes decide frame vs HTTP.
            kFramed,
            kHttp,
        } kind = Kind::kUnknown;
        std::string sniff;   ///< Bytes held until the kind is known.
        FrameReader reader;  ///< Framed-mode decoder.
        std::string httpBuf; ///< HTTP-mode request bytes.
        std::string out;     ///< Unwritten outbound bytes.
        bool closing = false; ///< Close once out drains.
        bool helloDone = false;
        std::string name;     ///< Worker-reported name.
        int waitingRequests = 0; ///< Unanswered lease_requests.
        std::set<std::string> leased; ///< Keys leased to this conn.
        std::size_t resultsIngested = 0;
        std::uint64_t connectedAtMs = 0;
    };

    // Event-loop internals (all called from the serve() thread only).
    void acceptClients();
    void readFrom(Conn &conn);
    void dispatchFrames(Conn &conn);
    void handleMessage(Conn &conn, const JsonValue &msg);
    void handleHttp(Conn &conn);
    void sendFrame(Conn &conn, const JsonValue &msg);
    void queueBytes(Conn &conn, const std::string &bytes);
    void flushOut(Conn &conn);
    void closeConn(int fd);
    void requeueUnit(std::size_t index);
    void grantLeases();
    void sweepExpiredLeases();
    void noteDone(std::size_t index);
    void publishMetrics();
    std::string progressJson() const;
    std::string metricsText() const;
    std::size_t outstandingLeases() const;

    CoordinatorOptions options;
    ResultStore *store;
    std::vector<Unit> units;
    std::map<std::string, std::size_t> unitByKey;
    std::deque<std::size_t> pendingQ;
    std::deque<int> waiters; ///< Conn fds owed a lease (FIFO, lazy-dead).

    int listenFd = -1;
    std::uint16_t boundPort = 0;
    std::map<int, Conn> conns;

    std::size_t done = 0;
    std::size_t warm = 0;
    std::size_t expired = 0;
    std::size_t ingested = 0;
    std::size_t soloSeen = 0;
    std::uint64_t startedAtMs = 0;
    std::uint64_t completedAtMs = 0; ///< 0 = still running.

    std::atomic<bool> stopRequested{false};
    mutable std::mutex metricsMutex;
    CoordinatorMetrics published;
};

} // namespace bh::svc
