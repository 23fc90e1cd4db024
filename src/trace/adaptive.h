/**
 * @file
 * Closed-loop adaptive RowHammer attacker (the adversarial engine's
 * red-team trace).
 *
 * Extends the many-sided kernel of trace/attacker.h with a deterministic
 * adaptation loop: every observeEvery emitted records the trace samples
 * its own ThrottleFeedback and mutates the pattern to stay under
 * TH_threat — backing off its pacing (more bubbles) and rotating to a
 * fresh aggressor-row window when throttled, re-accelerating after a calm
 * streak. Optionally a group of adaptive traces plays feedback.h's
 * thread-rotation threat: ownership of the attack rotates between the
 * group's slots on a record-count epoch schedule, idle slots emitting
 * benign-looking cached compute records.
 *
 * Determinism invariants (pinned by test_trace / test_system_skip):
 * adaptation decisions are counted in emitted records, never in cycles or
 * wall clock; the RNG is drawn only on the attack path (one bounded draw
 * per hammering record, exactly like the fixed attacker); and feedback
 * sampling is const. Given the same seed, config, and observed feedback
 * sequence the TraceRecord stream is bit-identical at any job count, in
 * both tick loops, and its decision sequence (rows, pacing, rotation) is
 * invariant across channel counts.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dram/address.h"
#include "trace/attacker.h"
#include "trace/feedback_view.h"
#include "trace/trace.h"

namespace bh {

/** Adaptation-loop parameters of an AdaptiveAttackerTrace. */
struct AdaptiveConfig
{
    /** Records between feedback observations while attacking. */
    unsigned observeEvery = 64;
    /** Pacing ceiling: bubbles never back off beyond this. */
    std::uint32_t maxBubbles = 64;
    /**
     * Rows the aggressor window shifts per throttled observation
     * (0 = auto: the pattern's row span plus a guard gap).
     */
    unsigned rotationStride = 0;
    /** Calm observations before the pacing re-accelerates one step. */
    unsigned calmStreak = 4;
    /**
     * Thread hand-off rotation (feedback.h's rotation threat): the
     * attack is active on slot `epoch % groupSize`, where epoch is
     * recordsEmitted / handoffEpoch. groupSize <= 1 or handoffEpoch == 0
     * disables hand-off (always active).
     */
    unsigned groupSize = 1;
    unsigned slotIndex = 0;
    std::uint64_t handoffEpoch = 0; ///< Records per ownership epoch.
};

/** Closed-loop adaptive many-sided/Half-Double hammer trace source. */
class AdaptiveAttackerTrace : public TraceSource
{
  public:
    AdaptiveAttackerTrace(const AttackerConfig &attack,
                          const AdaptiveConfig &adaptive,
                          const AddressMap &mapper, std::uint64_t seed);

    /**
     * Attach the feedback view (System) and this trace's own thread id.
     * Unbound traces never sample and behave like a paced fixed pattern.
     */
    void
    bindFeedback(const IThrottleFeedbackView *view, ThreadId self)
    {
        feedback = view;
        self_ = self;
    }

    TraceRecord next() override;
    const std::string &name() const override { return name_; }
    void transfer(StateIo &io) override;

    const AttackerConfig &attackConfig() const { return attack_; }
    const AdaptiveConfig &adaptiveConfig() const { return adaptive_; }

    /** Whether slot @p slot of @p config owns the attack at @p record. */
    static bool
    slotActiveAt(std::uint64_t record, const AdaptiveConfig &config,
                 unsigned slot)
    {
        if (config.groupSize <= 1 || config.handoffEpoch == 0)
            return true;
        return (record / config.handoffEpoch) % config.groupSize == slot;
    }

    // --- Introspection (tests + fuzzer reporting) ---
    std::uint64_t recordsEmitted() const { return recordCount; }
    std::uint64_t observations() const { return observationCount; }
    std::uint64_t throttledObservations() const { return throttledObs; }
    unsigned rotation() const { return rotation_; }
    std::uint32_t currentBubbles() const { return bubbles_; }
    double lastScore() const { return lastScore_; }
    unsigned lastQuota() const { return lastQuota_; }

    /** The aggressor rows of the current rotation window. */
    std::vector<unsigned> currentAggressorRows() const;

  private:
    bool activeNow() const;
    unsigned rotatedRow(unsigned base_row) const;

    AttackerConfig attack_;    // bh-audit: skip(attack_) -- constructor config, keyed by ExperimentConfig
    AdaptiveConfig adaptive_;  // bh-audit: skip(adaptive_) -- constructor config, keyed by ExperimentConfig
    const AddressMap &mapper;  // bh-audit: skip(mapper) -- non-owning wiring, owned by System
    Rng rng;
    std::string name_ = "adaptive_attacker";  // bh-audit: skip(name_) -- construction identity, fixed for the run

    // bh-audit: skip(feedback) -- non-owning wiring installed by System
    const IThrottleFeedbackView *feedback = nullptr;
    ThreadId self_ = 0;  // bh-audit: skip(self_) -- construction identity, fixed for the run

    // bh-audit: skip(seq) -- derived from attack_ at construction
    std::vector<unsigned> seq;           ///< Base row visit sequence.
    // bh-audit: skip(bankCoords) -- derived from attack_ at construction
    std::vector<DramAddress> bankCoords; ///< One template per bank.
    // bh-audit: skip(stride) -- derived from config at construction
    unsigned stride = 0;                 ///< Effective rotation stride.
    // bh-audit: skip(idleRow) -- derived from config at construction
    unsigned idleRow = 0;                ///< Cached idle-phase row.

    // --- Mutable adaptation state (all serialized) ---
    unsigned bankCursor = 0;
    unsigned rowCursor = 0;
    unsigned rotation_ = 0;       ///< Aggressor-window rotations so far.
    std::uint32_t bubbles_ = 0;   ///< Current pacing.
    std::uint64_t recordCount = 0;
    unsigned sinceObserve = 0;
    std::uint64_t observationCount = 0;
    std::uint64_t throttledObs = 0;
    unsigned calmCount = 0;
    double lastScore_ = 0.0;  ///< Observed-feedback history summary.
    unsigned lastQuota_ = 0;
};

} // namespace bh
