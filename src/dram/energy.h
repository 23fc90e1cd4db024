/**
 * @file
 * DRAM energy accounting (Fig 12).
 *
 * Counts command events and converts them to energy with the per-command
 * values in DramEnergy, plus flat background power integrated over the
 * simulated interval. Preventive actions (victim-row refreshes, RFM windows,
 * row migrations) are charged separately so their share is reportable.
 */
#pragma once

#include <cstdint>

#include "common/snapshot.h"
#include "common/types.h"
#include "dram/spec.h"

namespace bh {

/** Event counters plus energy conversion. */
class EnergyAccounting
{
  public:
    explicit EnergyAccounting(const DramEnergy &params) : params_(params) {}

    void addAct() { ++acts_; }
    void addRead() { ++reads_; }
    void addWrite() { ++writes_; }
    void addRefresh() { ++refs_; }
    void addRfm() { ++rfms_; }
    void addVictimRefresh(unsigned rows) { victimRows_ += rows; }
    void addMigration() { ++migrations_; }

    std::uint64_t acts() const { return acts_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t refreshes() const { return refs_; }
    std::uint64_t rfms() const { return rfms_; }
    std::uint64_t victimRows() const { return victimRows_; }
    std::uint64_t migrations() const { return migrations_; }

    /** Dynamic (command) energy in nanojoules. */
    double
    dynamicNj() const
    {
        return static_cast<double>(acts_) * params_.actPreNj +
               static_cast<double>(reads_) * params_.rdNj +
               static_cast<double>(writes_) * params_.wrNj +
               static_cast<double>(refs_) * params_.refNj +
               static_cast<double>(rfms_) * params_.rfmNj +
               static_cast<double>(victimRows_) * params_.vrrPerRowNj +
               static_cast<double>(migrations_) * params_.migrationNj;
    }

    /** Background energy in nanojoules over @p elapsed cycles. */
    double
    backgroundNj(Cycle elapsed, unsigned ranks) const
    {
        double seconds = cyclesToNs(elapsed) * 1e-9;
        double watts = params_.backgroundMwPerRank * 1e-3 * ranks;
        return watts * seconds * 1e9;
    }

    /** Total energy in nanojoules over @p elapsed cycles. */
    double
    totalNj(Cycle elapsed, unsigned ranks) const
    {
        return dynamicNj() + backgroundNj(elapsed, ranks);
    }

    /** Energy of preventive work only (VRR + RFM + migrations), nJ. */
    double
    preventiveNj() const
    {
        return static_cast<double>(rfms_) * params_.rfmNj +
               static_cast<double>(victimRows_) * params_.vrrPerRowNj +
               static_cast<double>(migrations_) * params_.migrationNj;
    }

    void
    reset()
    {
        acts_ = reads_ = writes_ = refs_ = rfms_ = victimRows_ =
            migrations_ = 0;
    }

    /** Save or load the event counters (params stay constructor-set). */
    void
    transfer(StateIo &io)
    {
        io.tag("energy");
        io.u64(acts_);
        io.u64(reads_);
        io.u64(writes_);
        io.u64(refs_);
        io.u64(rfms_);
        io.u64(victimRows_);
        io.u64(migrations_);
    }

  private:
    DramEnergy params_;  // bh-audit: skip(params_) -- constructor config, keyed by ExperimentConfig
    std::uint64_t acts_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t rfms_ = 0;
    std::uint64_t victimRows_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace bh
