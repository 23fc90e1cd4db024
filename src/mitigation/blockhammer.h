/**
 * @file
 * BlockHammer: throttling-based RowHammer prevention (Yaglikci et al.,
 * HPCA'21) — the paper's state-of-the-art throttling baseline (§8.3).
 *
 * RowBlocker: two time-interleaved counting Bloom filters per bank estimate
 * per-row activation counts over half-refresh-window epochs; rows whose
 * estimate crosses the blacklist threshold have further activations delayed
 * so they cannot reach N_RH activations within a refresh window.
 *
 * AttackThrottler: threads responsible for many blacklisted-row activations
 * get their memory-request resources (MSHR quota) reduced for the rest of
 * the epoch.
 *
 * Unlike BreakHammer, BlockHammer *is* the RowHammer defense: benign rows
 * that legitimately exceed the blacklist threshold (common at low N_RH, see
 * Table 3) get delayed too, which is exactly the behaviour Fig 18 shows.
 */
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/throttle_target.h"
#include "dram/spec.h"
#include "mitigation/mitigation.h"

namespace bh {

/** Counting Bloom filter used by the RowBlocker. */
class CountingBloomFilter
{
  public:
    CountingBloomFilter(unsigned num_counters = 1024, unsigned hashes = 4)
        : counters(num_counters, 0), numHashes(hashes)
    {}

    void
    increment(std::uint64_t key)
    {
        for (unsigned h = 0; h < numHashes; ++h)
            ++counters[slot(key, h)];
    }

    /** Count estimate: minimum over the key's hash slots (never under). */
    std::uint32_t
    estimate(std::uint64_t key) const
    {
        std::uint32_t est = UINT32_MAX;
        for (unsigned h = 0; h < numHashes; ++h)
            est = std::min(est, counters[slot(key, h)]);
        return est;
    }

    void clear() { std::fill(counters.begin(), counters.end(), 0); }

    /** Save or load the counter array (same geometry). */
    void
    transfer(StateIo &io)
    {
        io.tag("cbf");
        io.u32s(counters);
    }

  private:
    std::size_t
    slot(std::uint64_t key, unsigned h) const
    {
        std::uint64_t x = key * 0x9e3779b97f4a7c15ull +
                          (h + 1) * 0xbf58476d1ce4e5b9ull;
        x ^= x >> 31;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 29;
        return static_cast<std::size_t>(x % counters.size());
    }

    std::vector<std::uint32_t> counters;
    unsigned numHashes;  // bh-audit: skip(numHashes) -- constructor config, keyed by ExperimentConfig
};

/** BlockHammer mitigation mechanism. */
class BlockHammer : public IMitigation
{
  public:
    BlockHammer(unsigned n_rh, const DramSpec &spec, unsigned num_threads);

    const char *name() const override { return "BlockHammer"; }

    void commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                   Cycle now) override;

    /**
     * Pure query — never rolls the epoch. A row whose delay would have
     * been cleared by an epoch boundary at or before @p now reports
     * itself released; the state itself rolls in advanceTo()/commitAct().
     */
    Cycle probeActReleaseCycle(unsigned flat_bank, unsigned row,
                               ThreadId thread, Cycle now) const override;

    /** Roll the RowBlocker/AttackThrottler epoch state to @p now. */
    void advanceTo(Cycle now) override { rollEpoch(now); }

    /**
     * The next epoch boundary: every blacklist delay clears and every
     * throttled thread's quota is restored there, so the skip-ahead loop
     * must simulate that cycle.
     */
    Cycle nextTimedEventCycle(Cycle now) const override;

    bool delaysActs() const override { return true; }

    /** Attach the AttackThrottler's resource target (optional). */
    void setThrottleTarget(IThrottleTarget *t) { throttleTarget = t; }

    void transfer(StateIo &io) override;

    unsigned blacklistThreshold() const { return nbl; }
    Cycle blacklistDelay() const { return tDelay; }
    std::uint64_t blacklistedActs() const { return blacklistedActs_; }

  private:
    void rollEpoch(Cycle now);

    std::uint64_t
    keyOf(unsigned flat_bank, unsigned row) const
    {
        return (static_cast<std::uint64_t>(flat_bank) << 32) | row;
    }

    // bh-audit: skip(nbl) -- constructor config, keyed by ExperimentConfig
    unsigned nbl;    ///< Blacklist threshold (N_RH / 4).
    // bh-audit: skip(tDelay) -- constructor config, keyed by ExperimentConfig
    Cycle tDelay;    ///< Enforced ACT spacing for blacklisted rows.
    // bh-audit: skip(epochLength) -- constructor config, keyed by ExperimentConfig
    Cycle epochLength;
    Cycle epochStart = 0;

    /** Two time-interleaved CBFs; `active` is the fully trained one. */
    std::array<CountingBloomFilter, 2> cbf;
    unsigned active = 0;

    /** Last ACT cycle of blacklisted rows (cleared each epoch). */
    std::unordered_map<std::uint64_t, Cycle> lastBlacklistedAct;

    // AttackThrottler state.
    // bh-audit: skip(throttleTarget) -- non-owning wiring installed by System
    IThrottleTarget *throttleTarget = nullptr;
    std::vector<std::uint64_t> threadBlacklistActs;
    // bh-audit: skip(attackThreshold) -- constructor config, keyed by ExperimentConfig
    unsigned attackThreshold;
    std::uint64_t blacklistedActs_ = 0;
};

} // namespace bh
