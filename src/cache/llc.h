/**
 * @file
 * Functional shared last-level cache model.
 *
 * Set-associative, LRU, write-back/write-allocate, 64 B lines (Table 1:
 * 8 MiB, 8-way). Storage is tag-only: the simulator never models data
 * contents. Misses reserve the victim way immediately (no transient states);
 * the MSHR file tracks the outstanding fill.
 *
 * A set's ways are stored only once something is allocated into it: a
 * per-set slot index points into a pool of `ways`-line blocks, so a run
 * that touches a few thousand of the 16,384 sets never builds the rest.
 * A never-filled set behaves exactly like a set of invalid lines.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** Shared LLC configuration (defaults = Table 1). */
struct LlcConfig
{
    std::uint64_t sizeBytes = 8ull << 20;
    unsigned ways = 8;
    Cycle hitLatency = 40; ///< CPU cycles from access to data for a hit.
};

/** Tag-only set-associative cache with LRU replacement. */
class Llc
{
  public:
    /** Result of reserving a victim way for an incoming fill. */
    struct Victim
    {
        bool dirtyWriteback = false;
        Addr writebackLine = 0; ///< Line address (byte address of line).
    };

    explicit Llc(const LlcConfig &config);

    /**
     * Look up @p line_addr; on hit, updates LRU and dirtiness.
     * @param line_addr Line-aligned byte address.
     * @param is_write Marks the line dirty on hit.
     * @return true on hit.
     */
    bool access(Addr line_addr, bool is_write);

    /**
     * Reserve a way for @p line_addr ahead of its fill, evicting LRU.
     * @param[out] victim Filled with the evicted line if dirty.
     * @pre The line is not present.
     */
    void allocate(Addr line_addr, bool is_write, Victim *victim);

    /** Whether @p line_addr is present (no LRU update). */
    bool probe(Addr line_addr) const;

    /** Mark @p line_addr dirty if present (merged-store fill). */
    void setDirty(Addr line_addr);

    unsigned numSets() const { return numSets_; }

    /** Sets that have stored ways (every set allocated into so far). */
    std::size_t filledSets() const { return pool.size() / config_.ways; }
    const LlcConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    /**
     * Batch miss accounting for System::run's skip-ahead loop: a
     * reject-blocked core's retry probes the cache (and counts a miss)
     * once per dense cycle, so skipped retries are accounted here to
     * keep the counter bit-identical to the dense reference loop.
     */
    void addMisses(std::uint64_t n) { misses_ += n; }

    /** Serialize tags/LRU/dirtiness and the hit/miss counters. */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output into a same-geometry cache. */
    void loadState(StateReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0; ///< Larger = more recently used.
    };

    std::size_t setIndex(Addr line_addr) const;
    /** The ways of @p line_addr's set; empty if the set was never filled. */
    std::span<Line> filledSet(Addr line_addr);
    std::span<const Line> filledSet(Addr line_addr) const;
    Addr tagOf(Addr line_addr) const;

    LlcConfig config_;  // bh-audit: skip(config_) -- constructor config, keyed by ExperimentConfig
    unsigned numSets_ = 0;
    /** Per set: 1 + its block number in `pool`, or 0 if never filled. */
    // bh-audit: skip(slots) -- derived state; loadState rebuilds it from the logical tag store
    std::vector<std::uint32_t> slots;
    std::vector<Line> pool; ///< Blocks of `ways` lines, in first-fill order.
    std::uint64_t lruClock = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace bh
