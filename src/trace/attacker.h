/**
 * @file
 * RowHammer attacker trace generators.
 *
 * Models the access-pattern class the paper's artifact uses for its attacker
 * cores: a many-sided hammer cycling over a small set of aggressor rows in
 * each of many banks, with cache-bypassing accesses (the synthetic stand-in
 * for clflush+access loops). Iterating banks in the inner loop maximizes
 * bank-level parallelism, so a single thread can saturate the rank's
 * activation budget (tRRD/tFAW) — every access is a row-buffer conflict,
 * so every access costs one activation, and the pattern triggers the most
 * RowHammer-preventive actions per unit of time. Because sustaining this
 * rate needs many outstanding requests, the pattern is exactly what
 * BreakHammer's MSHR-quota throttling starves (§4.3).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dram/address.h"
#include "trace/trace.h"

namespace bh {

/**
 * Spatial shape of the hammering kernel. All three are expressed as a
 * deterministic aggressor-row visit sequence, so the RowCensus and the
 * HammerOracle observe exactly the per-row activation profile each
 * pattern is known for and can verdict it against N_RH.
 */
enum class AttackPattern : std::uint8_t
{
    /** The paper's artifact pattern: numAggressors rows per bank, visited
     *  round-robin (the historical default; byte-identical behavior). */
    kManySided = 0,
    /** Classic double-sided pairs: aggressors sandwich a victim row
     *  (victim v, aggressors v-1 and v+1), one pair per two aggressors. */
    kDoubleSided = 1,
    /**
     * Half-Double-style two-hop profile: per site, two far aggressors
     *  (distance 2 from the victim) are hammered heavily while the two
     *  near rows (distance 1) receive occasional "dilution" accesses —
     *  the far:near activation ratio is what the census/oracle verdict.
     */
    kHalfDouble = 2,
};

/** Configuration of a many-sided hammering kernel. */
struct AttackerConfig
{
    /** Spatial pattern; defaults to the historical many-sided kernel. */
    AttackPattern pattern = AttackPattern::kManySided;
    /** Aggressor rows hammered in each attacked bank. */
    unsigned numAggressors = 6;
    /** Row index of the first aggressor (0 = auto-place per core slot). */
    unsigned rowBase = 0;
    /** Spacing between aggressor rows (2 leaves victim rows between). */
    unsigned rowSpacing = 2;
    /**
     * Number of banks attacked (0 = all banks in the channel). The
     * default concentrates on one bank group per rank: wide enough to
     * hog bandwidth, focused enough that per-row activation counts climb
     * quickly (which is what triggers the per-row mechanisms).
     */
    unsigned numBanks = 8;
    /** Non-memory instructions between accesses (attackers busy-loop). */
    std::uint32_t bubbles = 2;
};

/**
 * The unique aggressor rows of @p config, relative to rowBase (pattern
 * geometry only; callers add rotation offsets). kManySided reproduces
 * the historical rowBase + i * rowSpacing layout bit for bit.
 */
std::vector<unsigned> attackerAggressorRows(const AttackerConfig &config);

/**
 * The deterministic row visit sequence of @p config: one full period of
 * the pattern. For kManySided this equals attackerAggressorRows(); for
 * kHalfDouble far rows repeat kHalfDoubleFarPerNear times per near
 * access (the dilution ratio).
 */
std::vector<unsigned> attackerRowSequence(const AttackerConfig &config);

/** Far-row accesses per near-row access in the Half-Double sequence. */
inline constexpr unsigned kHalfDoubleFarPerNear = 8;

/** Many-sided hammer trace source. */
class AttackerTrace : public TraceSource
{
  public:
    AttackerTrace(const AttackerConfig &config, const AddressMap &mapper,
                  std::uint64_t seed);

    TraceRecord next() override;
    const std::string &name() const override { return name_; }
    void transfer(StateIo &io) override;

    const AttackerConfig &config() const { return config_; }

    /** The aggressor row indices hammered in every attacked bank. */
    const std::vector<unsigned> &aggressorRows() const { return rows; }

    /** Number of banks under attack. */
    unsigned attackedBanks() const { return numBanks_; }

  private:
    AttackerConfig config_;    // bh-audit: skip(config_) -- constructor config, keyed by ExperimentConfig
    const AddressMap &mapper;  // bh-audit: skip(mapper) -- non-owning wiring, owned by System
    Rng rng;
    std::string name_ = "hammer_attacker";  // bh-audit: skip(name_) -- construction identity, fixed for the run
    // bh-audit: skip(rows) -- derived from config_ at construction
    std::vector<unsigned> rows; ///< Unique aggressor rows (introspection).
    // bh-audit: skip(seq) -- derived from config_ at construction
    std::vector<unsigned> seq;  ///< Row visit sequence (one period).
    // bh-audit: skip(bankCoords) -- derived from config_ at construction
    std::vector<DramAddress> bankCoords; ///< One template per bank.
    unsigned bankCursor = 0;
    unsigned rowCursor = 0;
    unsigned numBanks_ = 0;  // bh-audit: skip(numBanks_) -- derived from config_ at construction
};

/**
 * Bank coordinate templates shared by the attacker traces: @p num_banks
 * banks enumerated in channel- then rank-parallel order (alternate
 * channels, then ranks, then bank groups) — with one channel this is the
 * historical order.
 */
std::vector<DramAddress> attackerBankCoords(const DramOrg &org,
                                            unsigned num_banks);

} // namespace bh
