#include "dram/timing.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

TimingEngine::TimingEngine(const DramSpec &spec)
    : spec_(spec),
      banks(spec.org.totalBanks()),
      ranks(spec.org.ranks),
      energy_(spec.energy)
{
    for (unsigned fb = 0; fb < spec.org.totalBanks(); ++fb) {
        rankOf_.push_back(fb / spec.org.banksPerRank());
        groupOf_.push_back((fb % spec.org.banksPerRank()) /
                           spec.org.banksPerGroup);
    }
}

void
TimingEngine::recordAct(RankState &rank, unsigned bank_group, Cycle now)
{
    rank.lastAct = now;
    rank.lastActBankGroup = bank_group;
    rank.hasLastAct = true;
    rank.fawWindow[rank.fawHead] = now;
    rank.fawHead = (rank.fawHead + 1) % 4;
    if (rank.fawCount < 4)
        ++rank.fawCount;
    deriveActBounds(rank);
}

void
TimingEngine::deriveActBounds(RankState &rank) const
{
    Cycle faw_at = rank.fawCount >= 4
                       ? rank.fawWindow[rank.fawHead] + spec_.timing.tFAW
                       : 0;
    rank.sameGroupActAt = faw_at;
    rank.otherGroupActAt = faw_at;
    if (rank.hasLastAct) {
        rank.sameGroupActAt =
            std::max(faw_at, rank.lastAct + spec_.timing.tRRD_L);
        rank.otherGroupActAt =
            std::max(faw_at, rank.lastAct + spec_.timing.tRRD_S);
    }
}

Cycle
TimingEngine::quiescedAt(unsigned rank, Cycle now) const
{
    const RankState &r = ranks[rank];
    Cycle at = std::max(now, r.blockedUntil);
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
        const BankState &b = banks[base + i];
        if (b.open)
            return kNeverCycle;
        at = std::max(at, b.blockedUntil);
    }
    return at;
}

void
TimingEngine::issueAct(unsigned flat_bank, unsigned row, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kAct, flat_bank, now),
              "illegal ACT issue");
    BankState &b = banks[flat_bank];
    b.open = true;
    b.openRow = row;
    b.nextRdWr = now + spec_.timing.tRCD;
    b.nextPre = now + spec_.timing.tRAS;
    b.nextAct = now + spec_.timing.tRC;
    recordAct(ranks[rankOf_[flat_bank]], groupOf_[flat_bank], now);
    energy_.addAct();
}

void
TimingEngine::issuePre(unsigned flat_bank, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kPre, flat_bank, now),
              "illegal PRE issue");
    BankState &b = banks[flat_bank];
    b.open = false;
    b.nextAct = std::max(b.nextAct, now + spec_.timing.tRP);
}

Cycle
TimingEngine::issueRead(unsigned flat_bank, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kRead, flat_bank, now),
              "illegal RD issue");
    BankState &b = banks[flat_bank];
    b.nextRdWr = now + spec_.timing.tCCD;
    b.nextPre = std::max(b.nextPre, now + spec_.timing.tRTP);
    bus.nextRead = now + spec_.timing.tCCD;
    bus.nextWrite = std::max(
        bus.nextWrite,
        now + spec_.timing.tCL + spec_.timing.tBL + spec_.timing.tRTW);
    energy_.addRead();
    return now + spec_.timing.readLatency;
}

void
TimingEngine::issueWrite(unsigned flat_bank, Cycle now)
{
    BH_ASSERT(canIssue(DramCommand::kWrite, flat_bank, now),
              "illegal WR issue");
    BankState &b = banks[flat_bank];
    b.nextRdWr = now + spec_.timing.tCCD;
    b.nextPre = std::max(
        b.nextPre, now + spec_.timing.tCWL + spec_.timing.tBL +
                       spec_.timing.tWR);
    bus.nextWrite = now + spec_.timing.tCCD;
    bus.nextRead = std::max(
        bus.nextRead,
        now + spec_.timing.tCWL + spec_.timing.tBL + spec_.timing.tWTR);
    energy_.addWrite();
}

void
TimingEngine::issueRefresh(unsigned rank, Cycle now)
{
    BH_ASSERT(rankQuiesced(rank, now), "REF on non-quiesced rank");
    RankState &r = ranks[rank];
    Cycle until = now + spec_.timing.tRFC;
    r.blockedUntil = until;
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
        BankState &b = banks[base + i];
        b.open = false;
        b.blockedUntil = std::max(b.blockedUntil, until);
        b.nextAct = std::max(b.nextAct, until);
    }
    energy_.addRefresh();
}

void
TimingEngine::issueRfm(unsigned flat_bank, Cycle now)
{
    BankState &b = banks[flat_bank];
    Cycle until = now + spec_.timing.tRFM;
    b.open = false;
    b.blockedUntil = std::max(b.blockedUntil, until);
    b.nextAct = std::max(b.nextAct, until);
    energy_.addRfm();
}

void
TimingEngine::blockBank(unsigned flat_bank, Cycle now, Cycle duration)
{
    BankState &b = banks[flat_bank];
    Cycle until = now + duration;
    b.open = false;
    b.blockedUntil = std::max(b.blockedUntil, until);
    b.nextAct = std::max(b.nextAct, until);
}

void
TimingEngine::blockRank(unsigned rank, Cycle now, Cycle duration)
{
    RankState &r = ranks[rank];
    Cycle until = now + duration;
    r.blockedUntil = std::max(r.blockedUntil, until);
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i)
        blockBank(base + i, now, duration);
}

bool
TimingEngine::rankQuiesced(unsigned rank, Cycle now) const
{
    const RankState &r = ranks[rank];
    if (now < r.blockedUntil)
        return false;
    unsigned base = rank * spec_.org.banksPerRank();
    for (unsigned i = 0; i < spec_.org.banksPerRank(); ++i) {
        const BankState &b = banks[base + i];
        if (b.open || now < b.blockedUntil)
            return false;
    }
    return true;
}

void
TimingEngine::transfer(StateIo &io)
{
    io.tag("timing");
    io.count(banks.size());
    for (BankState &b : banks) {
        io.b(b.open);
        io.u64(b.openRow);
        io.u64(b.nextAct);
        io.u64(b.nextPre);
        io.u64(b.nextRdWr);
        io.u64(b.blockedUntil);
    }
    io.count(ranks.size());
    for (RankState &rank : ranks) {
        io.u64(rank.lastAct);
        io.u64(rank.lastActBankGroup);
        io.b(rank.hasLastAct);
        for (Cycle &c : rank.fawWindow)
            io.u64(c);
        io.u64(rank.fawCount);
        io.u64(rank.fawHead);
        io.u64(rank.blockedUntil);
        // The next ACT writes the window slot at fawHead.
        io.require(rank.fawHead < rank.fawWindow.size());
        if (io.loading() && io.ok())
            deriveActBounds(rank);
    }
    io.u64(bus.nextRead);
    io.u64(bus.nextWrite);
    energy_.transfer(io);
}

} // namespace bh
