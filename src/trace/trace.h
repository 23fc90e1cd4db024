/**
 * @file
 * Trace record format and the trace-source interface.
 *
 * The paper drives Ramulator2 with memory traces collected from SPEC/TPC/
 * MediaBench/YCSB applications. This repo substitutes parameterized
 * synthetic generators that reproduce the observable statistics those
 * mechanisms react to (MPKI and row-buffer locality; `bh_bench table03`
 * prints them per app); both file-backed and synthetic sources implement
 * `TraceSource`.
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** One unit of work for a core: some compute, then one memory access. */
struct TraceRecord
{
    /** Non-memory instructions to retire before this access. */
    std::uint32_t bubbles = 0;
    bool isWrite = false;
    /**
     * Bypass the cache hierarchy (models clflush-based access patterns;
     * the path RowHammer attackers use to guarantee row activations).
     */
    bool uncached = false;
    Addr addr = 0;
};

/** An infinite stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next record. Sources never run dry (they loop). */
    virtual TraceRecord next() = 0;

    /** Stable human-readable workload name. */
    virtual const std::string &name() const = 0;

    /**
     * Save or load the generator's mutable cursor/RNG state. Everything
     * derived from the constructor arguments (profiles, precomputed row
     * sets) is rebuilt deterministically on construction and not saved.
     * The default is for stateless/test sources: nothing to transfer.
     */
    virtual void transfer(StateIo &io) { (void)io; }
};

} // namespace bh
