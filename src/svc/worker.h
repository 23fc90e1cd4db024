/**
 * @file
 * Sweep-service worker: lease, simulate, report, repeat.
 *
 * A SweepWorker connects to a SweepCoordinator (retrying with capped
 * exponential backoff — a worker may come up before its coordinator, or
 * outlive a coordinator restart), keeps up to `jobs` leases in flight
 * across that many compute threads, and for each lease runs the leased
 * ExperimentConfig through the ordinary runExperiment() path under a
 * RunContext of its own. The context carries the worker's checkpoint
 * policy: a worker started with --checkpoint-every snapshots mid-run,
 * and a re-leased unit landing back on the same worker resumes from its
 * snapshot instead of starting over.
 *
 * While a simulation runs, the context's progress hook fires at an
 * instruction cadence and sends a wall-clock-rate-limited heartbeat for
 * the lease being computed, so the coordinator keeps the lease alive.
 * Solo-IPC denominators the worker computes reach the context's solo
 * sink and are forwarded as `solo` records.
 *
 * One I/O thread owns the socket (the compute threads only append
 * encoded frames to an outbox); frames still queued when the connection
 * drops survive the reconnect, so a finished result is not lost to a
 * coordinator hiccup. A result that IS lost in flight is covered by the
 * lease deadline: the coordinator requeues the unit and some worker —
 * possibly this one, from its snapshot — redoes it.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.h"
#include "svc/frame.h"

namespace bh::svc {

/** Worker tuning. */
struct WorkerOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Compute threads == leases kept in flight. */
    unsigned jobs = 1;
    /** Reported to the coordinator for the /metrics worker label. */
    std::string name;
    /** Snapshot policy for every leased simulation; empty dir = off. */
    CheckpointSpec checkpoint;
    /** Progress-hook cadence in retired instructions per benign core. */
    std::uint64_t heartbeatEveryInsts = 2000;
    /** Wall-clock floor between heartbeats of one compute thread. */
    std::uint64_t heartbeatMinIntervalMs = 500;
    /** Reconnect backoff doubles from 250 ms up to this cap. */
    std::uint64_t maxBackoffMs = 10000;
    /**
     * Give up after this many consecutive failed connection attempts
     * (the coordinator is gone, not busy). 0 = retry forever.
     */
    unsigned maxConnectFailures = 60;
};

/** One coordinator-driven sweep worker (see file comment). */
class SweepWorker
{
  public:
    explicit SweepWorker(WorkerOptions options);

    SweepWorker(const SweepWorker &) = delete;
    SweepWorker &operator=(const SweepWorker &) = delete;

    /**
     * Connect and work until the coordinator says `done`. Blocks; this
     * is the worker's whole life. @return false (with @p error set) on a
     * protocol error, a coordinator-reported error, or connect give-up.
     * Work completed before a failure has already been reported.
     */
    bool run(std::string *error);

    /** Ask a run() on another thread to wind down at the next poll. */
    void requestStop() { stopRequested.store(true); }

    /** Units this worker simulated and reported. */
    std::size_t completedUnits() const { return completedCount.load(); }

  private:
    struct Lease
    {
        std::string key;
        ExperimentConfig config;
    };

    /** Compute-thread body: pop leases, simulate, queue results. */
    void computeLoop();

    /** Append one encoded frame to the outbox (any thread). */
    void queueFrame(const JsonValue &msg);

    /** Connect to the coordinator; -1 on failure. */
    int connectOnce(std::string *error);

    /** One connection's lifetime; false = reconnect, true = finished. */
    bool serveConnection(int fd, std::string *error);

    WorkerOptions options;

    // Work queue (I/O thread pushes, compute threads pop).
    std::mutex workMutex;
    std::condition_variable workCv;
    std::deque<Lease> workQueue;
    bool shuttingDown = false;
    /** Leases held: queued or computing. Guarded by workMutex. */
    unsigned inflight = 0;

    // Outbox of encoded frames (compute threads push, I/O thread sends).
    std::mutex outboxMutex;
    std::deque<std::string> outbox;

    std::atomic<bool> stopRequested{false};
    std::atomic<bool> doneReceived{false};
    std::atomic<std::size_t> completedCount{0};
    std::string fatalError; ///< Set by the I/O thread only.
};

} // namespace bh::svc
