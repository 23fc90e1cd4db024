/**
 * @file
 * The full simulated system: cores, shared LLC + MSHRs, memory controller,
 * mitigation mechanism, BreakHammer, and the instrumentation the paper's
 * evaluation reports on.
 *
 * The System implements ICoreMemory and performs the LLC/MSHR handshake:
 * hits complete at the LLC latency, primary misses allocate an MSHR (gated
 * by the owner thread's BreakHammer quota) and enqueue a DRAM read,
 * secondary misses merge for free, uncached accesses (attacker traffic)
 * bypass the LLC but still consume MSHRs — the resource BreakHammer
 * throttles (§4.3).
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "breakhammer/breakhammer.h"
#include "cache/llc.h"
#include "cache/mshr.h"
#include "core/core.h"
#include "dram/address.h"
#include "dram/spec.h"
#include "mem/controller.h"
#include "mitigation/factory.h"
#include "sim/oracle.h"
#include "stats/histogram.h"
#include "trace/adaptive.h"
#include "trace/attacker.h"
#include "trace/benign.h"
#include "trace/feedback_view.h"

namespace bh {

/** One core slot of a workload mix. */
struct WorkloadSlot
{
    enum class Kind
    {
        kBenign,
        kAttacker,
        /** Closed-loop adaptive attacker (trace/adaptive.h). */
        kAdaptiveAttacker,
    };

    Kind kind = Kind::kBenign;
    std::string appName;     ///< Catalog profile (benign slots).
    AttackerConfig attacker; ///< Attack pattern (both attacker kinds).
    AdaptiveConfig adaptive; ///< Adaptation loop (adaptive slots only).
};

/** Complete system configuration. */
struct SystemConfig
{
    unsigned numCores = 4;
    DramSpec spec = DramSpec::ddr5();
    /** Channel-bit placement when spec.org.channels > 1. */
    Interleave interleave = Interleave::kMop;
    LlcConfig llc;
    unsigned mshrEntries = 64;
    CoreConfig core;
    McConfig mc;
    MitigationType mitigation = MitigationType::kNone;
    unsigned nRh = 1024;
    bool breakHammer = false;
    BreakHammerConfig bh;
    /**
     * Ablation knob (§4.3 / §4.4 discussion): when set, a throttled
     * thread's secondary misses are rejected too, instead of merging into
     * in-flight MSHRs — the "blunt" throttle point the paper's design
     * deliberately avoids.
     */
    bool bluntThrottle = false;
    bool enableOracle = false;
    std::uint64_t seed = 1;
};

/** Per-core outcome of a run. */
struct CoreResult
{
    std::string name;
    bool benign = true;
    std::uint64_t retired = 0;
    Cycle finishCycle = 0; ///< When the instruction target was reached.
    double ipc = 0.0;
    std::uint64_t rejectStalls = 0;
};

/** Outcome of one simulation. */
struct RunResult
{
    std::vector<CoreResult> cores;
    Cycle cycles = 0;
    double energyNj = 0.0;
    double preventiveEnergyNj = 0.0;
    std::uint64_t preventiveActions = 0;
    std::uint64_t demandActs = 0;
    std::uint64_t suspectMarks = 0;
    std::uint64_t quotaRejections = 0;
    std::uint64_t oracleViolations = 0;
    std::uint32_t oracleMaxCount = 0;
    /**
     * Final BreakHammer introspection, per thread (§4 "feedback to system
     * software"): the active-set RowHammer-preventive score and the
     * dynamic MSHR quota at the end of the run. Empty when BreakHammer is
     * not attached.
     */
    std::vector<double> bhScores;
    std::vector<unsigned> bhQuotas;
    /**
     * Demand activations attributed per thread (summed over channels).
     * The adversarial engine's evasion accounting: an adaptive attacker
     * is better when it forces fewer preventive actions per attacker
     * activation than the fixed pattern does.
     */
    std::vector<std::uint64_t> demandActsPerThread;
    Histogram benignReadLatencyNs{2.0, 4096};
    bool hitCycleCap = false;

    /** IPC of benign cores, in slot order. */
    std::vector<double> benignIpcs() const;
};

/** The simulated machine. */
class System : public ICoreMemory, public IThrottleFeedbackView
{
  public:
    System(const SystemConfig &config,
           const std::vector<WorkloadSlot> &slots);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Cadence grid of the idle-path BreakHammer rollWindows call in the
     * dense reference loop AND of the skip-ahead loop's window wake-up
     * rounding: the two sites must use the same grid or the loops
     * diverge. Both go through isRollCycle()/nextRollCycleAtOrAfter()
     * below, and test_system_skip checks the helpers against each other,
     * so the coupling is structural, not a comment.
     */
    static constexpr Cycle kRollPeriodMask = 0xfff;

    /** Whether the dense loop calls rollWindows at @p cycle. */
    static constexpr bool
    isRollCycle(Cycle cycle)
    {
        return (cycle & kRollPeriodMask) == 0;
    }

    /** First roll-grid cycle at or after @p cycle (skip-ahead wake-up). */
    static constexpr Cycle
    nextRollCycleAtOrAfter(Cycle cycle)
    {
        return (cycle + kRollPeriodMask) & ~kRollPeriodMask;
    }

    /** Snapshot blob format version (bump on layout change).
     *  v2: Histogram state gained the dropped-NaN-sample counter.
     *  v3: per-channel controller/mitigation/oracle/census sections and
     *      per-channel vectors in the skip loop's retry-state snapshot
     *      (multi-channel scale-out);
     *      stale v2 snapshots recompute, never mislead.
     *  v4: per-thread demand-ACT accumulators in the system section and
     *      adaptive-attacker trace state (adversarial engine); the
     *      config fingerprint also covers the new slot fields.
     *  v5: the skip loop's retry-state snapshot section, the completed-
     *      read count and the MSHR quota-write count are gone (the loop
     *      gates on rejectKey() alone).
     *  v6: the per-channel row-census presence byte is gone (the
     *      System-level census was deleted).
     *  v7: the controller's drain flag is the write-drain mode at its
     *      last demand command, no longer the flag a tick at every cycle
     *      up to the checkpoint would have left. */
    static constexpr std::uint32_t kSnapshotVersion = 7;

    /** How run() runs: mid-run checkpointing and the loop mode. */
    struct CheckpointConfig
    {
        /** Snapshot file path; empty disables checkpointing. */
        std::string path;
        /**
         * Save whenever the slowest benign core's retired-instruction
         * count crosses a multiple of this (0 = no instruction cadence).
         */
        std::uint64_t everyInsts = 0;
        /** Save whenever `now` crosses a multiple of this (0 = off). */
        Cycle everyCycles = 0;
        /**
         * Opaque caller identity (e.g. the experiment content address
         * plus a schema version) embedded in the snapshot and required
         * to match on resume; empty skips the check.
         */
        std::string identity;

        /**
         * Observation-only progress callback, invoked at the same
         * top-of-iteration point snapshots are cut, whenever the slowest
         * benign core's retired count crosses a multiple of
         * progressEveryInsts (0 disables it). Like checkpointing,
         * invoking it must not (and does not) perturb the simulation.
         */
        std::function<void(std::uint64_t retired)> onProgress;
        std::uint64_t progressEveryInsts = 0;
        /** Run the reference cycle-by-cycle loop (see run()). */
        bool denseTick = false;
    };

    /**
     * Arm mid-run checkpointing: run() saves a full-state snapshot to
     * config.path at the configured cadence (atomically — a kill during
     * a save leaves the previous snapshot intact). Saving is observation
     * only: a checkpointed run's results are bit-identical to an
     * uncheckpointed one.
     */
    void setCheckpoint(const CheckpointConfig &config);

    /**
     * Serialize the complete simulation state to @p path: per-core
     * pipeline and trace-cursor state, LLC tags, MSHR contents, the
     * memory controller (queues, maintenance, completions, refresh,
     * timing engine, energy counters), the mitigation mechanism,
     * BreakHammer, the oracle when attached, RNG streams, and the
     * in-flight latency histogram. The blob is versioned, carries a
     * config fingerprint plus the caller identity, and ends in a
     * checksum; any mismatch on load falls back to recompute.
     */
    bool saveSnapshot(const std::string &path,
                      std::string *error = nullptr);

    /** The saveSnapshot() byte string without the file write. */
    std::string snapshotBlob();

    /**
     * Restore a snapshotBlob()/saveSnapshot() byte string into this
     * freshly constructed System; same contract and checks as
     * resumeFromSnapshot() minus the file read.
     */
    bool restoreSnapshotBlob(const std::string &blob,
                             std::string *error = nullptr);

    /**
     * Restore a saveSnapshot() blob into this freshly constructed
     * System. On success the next run() continues mid-loop from the
     * snapshot cycle and produces byte-identical results to a run that
     * was never interrupted. Returns false (leaving an arbitrary partial
     * state — discard the instance) when the file is missing, damaged,
     * of another version, from a different config/identity, or when its
     * sections disagree (sectionsAgree()).
     */
    bool resumeFromSnapshot(const std::string &path,
                            std::string *error = nullptr);

    /**
     * Run until every benign core retired @p benign_target instructions
     * (or @p max_cycles elapse).
     *
     * The loop is event-driven: after ticking every component at the
     * current cycle it computes the earliest cycle at which any of them
     * can make progress (core retire, controller issue slot or
     * completion, refresh deadline, BreakHammer window boundary) and
     * jumps there, batching the stall accounting of reject-blocked cores
     * across the skipped dead cycles. CheckpointConfig::denseTick
     * selects the reference cycle-by-cycle loop instead; both produce
     * bit-identical results (test_system_skip enforces this).
     */
    RunResult run(std::uint64_t benign_target, Cycle max_cycles);

    // --- ICoreMemory ---
    AccessOutcome load(ThreadId thread, Addr addr, bool uncached,
                       std::uint64_t token) override;
    AccessOutcome store(ThreadId thread, Addr addr, bool uncached) override;

    // --- IThrottleFeedbackView (adaptive attacker feedback surface) ---
    ThrottleFeedback
    sampleThrottleFeedback(ThreadId thread) const override;

    BreakHammer *breakHammer() { return bh.get(); }
    MemoryController &controller(unsigned ch = 0) { return *mcs[ch]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(mcs.size());
    }
    const SystemConfig &config() const { return config_; }

  private:
    void handleReadComplete(const Request &req, Cycle done_cycle);

    /**
     * The simulation loop + result assembly behind run(): ticks from the
     * current `now` until every benign core reached @p ipc_target (the
     * instruction target IPC is reported against) or @p max_cycles is
     * hit.
     */
    RunResult runLoop(Cycle max_cycles, std::uint64_t ipc_target);

    /**
     * Monotone count of every event that can flip a rejected access's
     * retry outcome: MSHR allocate/release/setQuota (a read completion
     * releases its entry) and controller enqueues and column commands.
     * While it holds still, reject-blocked cores repeat the identical
     * rejection, so the skip loop may batch their retries.
     */
    std::uint64_t rejectKey() const;

    /**
     * Stable hash over every constructor input that shapes the object
     * graph; a snapshot from a different configuration must never load.
     */
    std::uint64_t configFingerprint() const;

    /**
     * Save or load all mutable state (the payload of saveSnapshot()); a
     * failed load leaves partial state.
     */
    void transfer(StateIo &io);

    /**
     * Whether restored sections agree with each other: every request a
     * controller holds names a core (its ACT indexes the per-thread
     * counts, a write's included), every read it holds is exactly one
     * MSHR entry's fill, and every MSHR load waiter exactly one busy
     * window slot of its core. Completions release and wake by token,
     * so a disagreement would panic later.
     */
    bool sectionsAgree() const;

    /** Earliest cycle > now at which any component can make progress. */
    Cycle nextWakeCycle() const;

    /**
     * Account the per-cycle side effects of @p skipped dead cycles: each
     * reject-blocked core repeats one identical rejected retry per cycle
     * (a reject-stall, plus a quota-rejection count when the rejection
     * was quota-caused). All other component state is provably frozen
     * across the skipped range.
     */
    void accountSkippedCycles(Cycle skipped);

    /** Channel that owns @p addr (0 with a single-channel map). */
    unsigned channelOf(Addr addr) const;

    /** Worst-case writeback room: write space on every channel. */
    bool allChannelsHaveWriteRoom() const;

    // bh-audit: skip(config_) -- constructor config; a restore checks its fingerprint
    SystemConfig config_;
    // bh-audit: skip(mapper) -- derived from config_.spec at construction
    AddressMap mapper;
    /** One controller per channel, index == channel id. Mitigation
     *  and oracle instances pair with controllers one-to-one
     *  (tables are per-channel structures; flat banks are channel-local,
     *  so per-rank state lives in each channel's instance). BreakHammer
     *  is shared: it scores threads, not banks. */
    std::vector<std::unique_ptr<MemoryController>> mcs;
    Llc llc;
    MshrFile mshr;
    std::vector<std::unique_ptr<IMitigation>> mitigations;
    std::unique_ptr<BreakHammer> bh;
    std::vector<std::unique_ptr<HammerOracle>> oracles;

    // bh-audit: skip(traces) -- each trace is transferred by its Core (Core::transfer)
    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<std::unique_ptr<Core>> cores;
    // bh-audit: skip(benignSlot) -- derived from the workload mix at construction
    std::vector<bool> benignSlot;

    /**
     * Per thread: whether its most recent rejection counted as a quota
     * rejection, and whether its retry path probes the LLC (cached
     * accesses count one miss per retry). Set on every kRejected return.
     * While the memory system is frozen, retries repeat the identical
     * branch, so these flags let accountSkippedCycles() replay their
     * stats without re-executing.
     */
    std::vector<bool> rejectCountsQuota;
    std::vector<bool> rejectTouchesLlc;

    Histogram latencyHist{2.0, 4096};
    std::uint64_t uncachedKeyCounter = 0;

    /** Demand ACTs attributed per thread, summed over channels (the
     *  controllers' onDemandAct callbacks feed it). */
    std::vector<std::uint64_t> demandActsByThread_;

    /** rejectKey() when the skip loop last saw a reject-blocked core;
     *  kNoRejectKey makes the next such iteration simulate its cycle.
     *  A derived event key, never serialized: run() and a load reset
     *  it. */
    static constexpr std::uint64_t kNoRejectKey = ~0ull;
    std::uint64_t snapKey_ = kNoRejectKey;

    Cycle now = 0;

    /** Checkpoint settings; inactive while path is empty. */
    // bh-audit: skip(checkpoint_) -- host-side harness setting, not simulation state
    CheckpointConfig checkpoint_;

    /**
     * Set by resumeFromSnapshot(): the next run() continues from the
     * restored `now` instead of starting at cycle 0.
     */
    // bh-audit: skip(resumePending_) -- transient resume latch, consumed by the next run()
    bool resumePending_ = false;

    /** Slots the constructor received (config fingerprint input). */
    // bh-audit: skip(slots_) -- constructor config, keyed by ExperimentConfig
    std::vector<WorkloadSlot> slots_;
};

} // namespace bh
