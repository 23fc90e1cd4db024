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
TimingEngine::saveState(StateWriter &w) const
{
    w.tag("timing");
    saveVector(w, banks, [](StateWriter &sw, const BankState &b) {
        sw.b(b.open);
        sw.u64(b.openRow);
        sw.u64(b.nextAct);
        sw.u64(b.nextPre);
        sw.u64(b.nextRdWr);
        sw.u64(b.blockedUntil);
    });
    saveVector(w, ranks, [](StateWriter &sw, const RankState &r) {
        sw.u64(r.lastAct);
        sw.u64(r.lastActBankGroup);
        sw.b(r.hasLastAct);
        for (Cycle c : r.fawWindow)
            sw.u64(c);
        sw.u64(r.fawCount);
        sw.u64(r.fawHead);
        sw.u64(r.blockedUntil);
    });
    w.u64(bus.nextRead);
    w.u64(bus.nextWrite);
    energy_.saveState(w);
}

void
TimingEngine::loadState(StateReader &r)
{
    r.tag("timing");
    std::vector<BankState> bank_state;
    loadVector(r, &bank_state, [](StateReader &sr, BankState *b) {
        b->open = sr.b();
        b->openRow = static_cast<unsigned>(sr.u64());
        b->nextAct = sr.u64();
        b->nextPre = sr.u64();
        b->nextRdWr = sr.u64();
        b->blockedUntil = sr.u64();
    });
    std::vector<RankState> rank_state;
    loadVector(r, &rank_state, [](StateReader &sr, RankState *rk) {
        rk->lastAct = sr.u64();
        rk->lastActBankGroup = static_cast<unsigned>(sr.u64());
        rk->hasLastAct = sr.b();
        for (Cycle &c : rk->fawWindow)
            c = sr.u64();
        rk->fawCount = static_cast<unsigned>(sr.u64());
        rk->fawHead = static_cast<unsigned>(sr.u64());
        rk->blockedUntil = sr.u64();
    });
    if (!r.ok() || bank_state.size() != banks.size() ||
        rank_state.size() != ranks.size()) {
        r.fail();
        return;
    }
    banks = std::move(bank_state);
    ranks = std::move(rank_state);
    for (RankState &rank : ranks)
        deriveActBounds(rank);
    bus.nextRead = r.u64();
    bus.nextWrite = r.u64();
    energy_.loadState(r);
}

} // namespace bh
