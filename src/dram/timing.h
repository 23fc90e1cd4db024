/**
 * @file
 * Cycle-level DRAM bank/rank/channel timing engine.
 *
 * Tracks, per bank, the earliest cycle at which each command class is legal,
 * plus rank-level ACT spacing (tRRD_L/tRRD_S, tFAW), channel-level column
 * command spacing and read/write turnaround, refresh blackouts (tRFC), RFM
 * windows (tRFM), and arbitrary maintenance blackouts used to model victim-
 * row refreshes, AQUA row migrations, and PRAC alert back-off.
 *
 * The controller asks `canIssue()` or `earliestIssue()` (inline: the
 * scheduler's walks make them tens of millions of times per run) and then
 * calls the matching `issue*()`; the engine never schedules on its own.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"
#include "dram/energy.h"
#include "dram/spec.h"

namespace bh {

/** DRAM command classes the engine arbitrates. */
enum class DramCommand
{
    kAct,
    kPre,
    kRead,
    kWrite,
};

/** Per-bank timing and row-buffer state. */
struct BankState
{
    bool open = false;
    unsigned openRow = 0;
    Cycle nextAct = 0;     ///< Earliest next ACT (tRC, tRP after PRE).
    Cycle nextPre = 0;     ///< Earliest next PRE (tRAS, tRTP, tWR).
    Cycle nextRdWr = 0;    ///< Earliest next column command (tRCD, tCCD).
    Cycle blockedUntil = 0; ///< Maintenance blackout (REF/RFM/VRR/...).
};

/** Per-rank ACT spacing state. */
struct RankState
{
    Cycle lastAct = 0;
    unsigned lastActBankGroup = 0;
    bool hasLastAct = false;
    std::array<Cycle, 4> fawWindow{}; ///< Ring of recent ACT cycles.
    unsigned fawCount = 0;            ///< ACTs recorded so far (saturates).
    unsigned fawHead = 0;
    Cycle blockedUntil = 0; ///< Rank-wide blackout (REF, alert back-off).
    /** Earliest next ACT by tRRD_L and tFAW, to the last ACT's bank
     *  group and to any other (derived from the fields above). */
    Cycle sameGroupActAt = 0;
    Cycle otherGroupActAt = 0;
};

/** Channel-level data/command bus state. */
struct ChannelBusState
{
    Cycle nextRead = 0;  ///< Earliest next RD start (tCCD, tWTR).
    Cycle nextWrite = 0; ///< Earliest next WR start (tCCD, tRTW).
};

/** The timing engine for one channel. */
class TimingEngine
{
  public:
    explicit TimingEngine(const DramSpec &spec);

    /**
     * Earliest cycle >= @p now at which @p cmd to @p flat_bank becomes
     * legal, assuming no further commands are issued in between. Returns
     * kNeverCycle when only another command could make it legal (ACT on an
     * open bank, column/PRE on a closed one). The result is exact for the
     * frozen state: canIssue(cmd, fb, t) is false for every t below it and
     * true at it. The skip-ahead loop in System::run uses this to jump
     * straight to the next cycle the controller can make progress.
     */
    Cycle
    earliestIssue(DramCommand cmd, unsigned flat_bank, Cycle now) const
    {
        const BankState &b = banks[flat_bank];
        unsigned rank = rankOf_[flat_bank];
        Cycle at = std::max({now, b.blockedUntil, ranks[rank].blockedUntil});
        switch (cmd) {
          case DramCommand::kAct:
            return b.open ? kNeverCycle
                          : std::max({at, b.nextAct,
                                      rankActAt(rank, groupOf_[flat_bank])});
          case DramCommand::kPre:
            return b.open ? std::max(at, b.nextPre) : kNeverCycle;
          case DramCommand::kRead:
          case DramCommand::kWrite:
            return b.open ? std::max({at, b.nextRdWr,
                                      columnBusAt(cmd == DramCommand::kRead)})
                          : kNeverCycle;
        }
        return kNeverCycle;
    }

    /**
     * Whether @p cmd to @p flat_bank is legal at cycle @p now: each
     * constraint is a lower bound on the issue cycle, so this is exactly
     * earliestIssue() having nothing to wait for.
     */
    bool
    canIssue(DramCommand cmd, unsigned flat_bank, Cycle now) const
    {
        return earliestIssue(cmd, flat_bank, now) == now;
    }

    /**
     * Earliest cycle the rank-level ACT constraints allow an ACT to bank
     * group @p bank_group of @p rank: tRRD_L/tRRD_S after the rank's last
     * ACT and tFAW after its fourth-most-recent one. The rank blackout is
     * not included (earliestIssue() adds it for every command).
     */
    Cycle
    rankActAt(unsigned rank, unsigned bank_group) const
    {
        const RankState &r = ranks[rank];
        return bank_group == r.lastActBankGroup ? r.sameGroupActAt
                                                : r.otherGroupActAt;
    }

    /** Earliest cycle the channel's data bus takes a RD or a WR. */
    Cycle
    columnBusAt(bool is_read) const
    {
        return is_read ? bus.nextRead : bus.nextWrite;
    }

    /**
     * Earliest cycle >= @p now at which @p rank is fully quiesced (every
     * bank precharged and all blackouts expired), assuming no further
     * commands. kNeverCycle while any bank is still open (a PRE has to
     * happen first).
     */
    Cycle quiescedAt(unsigned rank, Cycle now) const;

    /** Issue ACT opening @p row. @pre canIssue(kAct, ...). */
    void issueAct(unsigned flat_bank, unsigned row, Cycle now);

    /** Issue PRE closing the open row. @pre canIssue(kPre, ...). */
    void issuePre(unsigned flat_bank, Cycle now);

    /**
     * Issue RD to the open row.
     * @return Cycle at which read data is fully returned.
     * @pre canIssue(kRead, ...).
     */
    Cycle issueRead(unsigned flat_bank, Cycle now);

    /** Issue WR to the open row. @pre canIssue(kWrite, ...). */
    void issueWrite(unsigned flat_bank, Cycle now);

    /**
     * All-bank refresh on @p rank: closes and blocks every bank for tRFC.
     * @pre rankQuiesced(rank, now).
     */
    void issueRefresh(unsigned rank, Cycle now);

    /** RFM on @p flat_bank: closes and blocks the bank for tRFM. */
    void issueRfm(unsigned flat_bank, Cycle now);

    /**
     * Generic maintenance blackout on one bank (victim-row refresh, row
     * migration). Closes the row; the bank accepts no command until
     * now + duration.
     */
    void blockBank(unsigned flat_bank, Cycle now, Cycle duration);

    /** Rank-wide blackout (PRAC alert back-off). Closes all rows. */
    void blockRank(unsigned rank, Cycle now, Cycle duration);

    /** True when every bank of @p rank is precharged and not blocked. */
    bool rankQuiesced(unsigned rank, Cycle now) const;

    const BankState &bank(unsigned flat_bank) const
    {
        return banks[flat_bank];
    }

    const RankState &rank(unsigned rank) const { return ranks[rank]; }

    /** Rank index of a flat bank. */
    unsigned rankOf(unsigned flat_bank) const { return rankOf_[flat_bank]; }

    /** Bank-group index (within its rank) of a flat bank. */
    unsigned
    bankGroupOf(unsigned flat_bank) const
    {
        return groupOf_[flat_bank];
    }

    EnergyAccounting &energy() { return energy_; }
    const EnergyAccounting &energy() const { return energy_; }

    const DramSpec &spec() const { return spec_; }

    /** Serialize bank/rank/bus timing state and energy counters. */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output into a same-spec engine. */
    void loadState(StateReader &r);

  private:
    void recordAct(RankState &rank, unsigned bank_group, Cycle now);
    void deriveActBounds(RankState &rank) const;

    DramSpec spec_;  // bh-audit: skip(spec_) -- constructor config, keyed by ExperimentConfig
    /** Per flat bank: rank and bank group, so lookups never divide. */
    // bh-audit: skip(rankOf_) -- derived from spec_ at construction
    std::vector<unsigned> rankOf_;
    // bh-audit: skip(groupOf_) -- derived from spec_ at construction
    std::vector<unsigned> groupOf_;
    std::vector<BankState> banks;
    std::vector<RankState> ranks;
    ChannelBusState bus;
    EnergyAccounting energy_;
};

} // namespace bh
