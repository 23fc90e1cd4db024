#include "cache/llc.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

Llc::Llc(const LlcConfig &config) : config_(config)
{
    std::uint64_t num_lines = config.sizeBytes / kCacheLineBytes;
    BH_ASSERT(num_lines % config.ways == 0,
              "LLC geometry must divide evenly");
    std::uint64_t num_sets = num_lines / config.ways;
    BH_ASSERT((num_sets & (num_sets - 1)) == 0,
              "LLC set count must be a power of two");
    numSets_ = static_cast<unsigned>(num_sets);
    slots.assign(numSets_, 0);
}

std::size_t
Llc::setIndex(Addr line_addr) const
{
    return (line_addr >> kCacheLineBits) & (numSets_ - 1);
}

std::span<Llc::Line>
Llc::filledSet(Addr line_addr)
{
    std::uint32_t slot = slots[setIndex(line_addr)];
    if (slot == 0)
        return {};
    return {pool.data() + std::size_t{slot - 1} * config_.ways,
            config_.ways};
}

std::span<const Llc::Line>
Llc::filledSet(Addr line_addr) const
{
    std::uint32_t slot = slots[setIndex(line_addr)];
    if (slot == 0)
        return {};
    return {pool.data() + std::size_t{slot - 1} * config_.ways,
            config_.ways};
}

Addr
Llc::tagOf(Addr line_addr) const
{
    return line_addr >> kCacheLineBits;
}

bool
Llc::access(Addr line_addr, bool is_write)
{
    std::span<Line> set = filledSet(line_addr);
    Addr tag = tagOf(line_addr);
    for (Line &line : set) {
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock;
            if (is_write)
                line.dirty = true;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

void
Llc::allocate(Addr line_addr, bool is_write, Victim *victim)
{
    std::uint32_t &slot = slots[setIndex(line_addr)];
    if (slot == 0) {
        pool.resize(pool.size() + config_.ways);
        slot = static_cast<std::uint32_t>(pool.size() / config_.ways);
    }
    std::span<Line> set = filledSet(line_addr);
    Addr tag = tagOf(line_addr);

    Line *target = nullptr;
    for (Line &line : set) {
        BH_ASSERT(!(line.valid && line.tag == tag),
                  "allocate of already-present line");
        if (!line.valid) {
            target = &line;
            break;
        }
        if (target == nullptr || line.lru < target->lru)
            target = &line;
    }

    if (victim != nullptr) {
        victim->dirtyWriteback = target->valid && target->dirty;
        victim->writebackLine = target->tag << kCacheLineBits;
        if (victim->dirtyWriteback)
            ++writebacks_;
    }

    target->valid = true;
    target->tag = tag;
    target->dirty = is_write;
    target->lru = ++lruClock;
}

bool
Llc::probe(Addr line_addr) const
{
    std::span<const Line> set = filledSet(line_addr);
    Addr tag = tagOf(line_addr);
    for (const Line &line : set)
        if (line.valid && line.tag == tag)
            return true;
    return false;
}

void
Llc::setDirty(Addr line_addr)
{
    std::span<Line> set = filledSet(line_addr);
    Addr tag = tagOf(line_addr);
    for (Line &line : set) {
        if (line.valid && line.tag == tag) {
            line.dirty = true;
            return;
        }
    }
}

void
Llc::transfer(StateIo &io)
{
    io.tag("llc");
    io.count(numSets_);
    // Struct-of-arrays bulk encoding: the tag store is by far the
    // largest snapshot section (one entry per cache line), so it travels
    // as three flat arrays instead of hundreds of thousands of per-field
    // codec calls. Flags pack valid|dirty<<1 per line. Tags and LRU
    // stamps almost always fit 32 bits (tags below a 256 GB address
    // space, LRU stamps below 4G accesses); a width byte keeps the wide
    // encoding available for the rare state that does not.
    //
    // The arrays are the logical, set-major tag store: a never-filled
    // set contributes `ways` default lines, so the bytes do not depend
    // on which sets are stored.
    const std::size_t ways = config_.ways;
    const std::size_t n = std::size_t{numSets_} * ways;
    std::vector<std::uint32_t> t32, l32;
    std::vector<std::uint64_t> t64, l64, flags((n + 31) / 32);
    std::uint8_t narrow = 1;
    if (!io.loading()) {
        const Line empty{};
        auto line_at = [&](std::size_t i) -> const Line & {
            std::uint32_t slot = slots[i / ways];
            return slot == 0 ? empty : pool[(slot - 1) * ways + i % ways];
        };
        t32.reserve(n);
        l32.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const Line &line = line_at(i);
            if (line.tag > UINT32_MAX || line.lru > UINT32_MAX)
                narrow = 0;
            t32.push_back(static_cast<std::uint32_t>(line.tag));
            l32.push_back(static_cast<std::uint32_t>(line.lru));
            std::uint64_t f = (line.valid ? 1u : 0u) | (line.dirty ? 2u : 0u);
            flags[i / 32] |= f << ((i % 32) * 2);
        }
        for (std::size_t i = 0; i < n && narrow == 0; ++i) {
            t64.push_back(line_at(i).tag);
            l64.push_back(line_at(i).lru);
        }
    }
    io.u8(narrow);
    if (narrow != 0) {
        t32.resize(n);
        l32.resize(n);
        io.u32s(t32);
        io.u32s(l32);
    } else {
        t64.resize(n);
        l64.resize(n);
        io.u64s(t64);
        io.u64s(l64);
    }
    io.u64s(flags);
    if (io.loading() && io.ok()) {
        auto tag_at = [&](std::size_t i) -> Addr {
            return narrow != 0 ? t32[i] : t64[i];
        };
        auto lru_at = [&](std::size_t i) -> std::uint64_t {
            return narrow != 0 ? l32[i] : l64[i];
        };
        auto flags_at = [&](std::size_t i) -> std::uint64_t {
            return (flags[i / 32] >> ((i % 32) * 2)) & 3u;
        };
        // Store only the sets whose lines are not all default; the rest
        // read back as never filled, which behaves identically.
        std::fill(slots.begin(), slots.end(), 0);
        pool.clear();
        for (std::size_t set = 0; set < numSets_; ++set) {
            const std::size_t first = set * ways;
            bool filled = false;
            for (std::size_t i = first; i < first + ways && !filled; ++i)
                filled = tag_at(i) != 0 || lru_at(i) != 0 || flags_at(i) != 0;
            if (!filled)
                continue;
            pool.resize(pool.size() + ways);
            slots[set] = static_cast<std::uint32_t>(pool.size() / ways);
            Line *block = pool.data() + pool.size() - ways;
            for (std::size_t way = 0; way < ways; ++way) {
                Line &line = block[way];
                line.tag = tag_at(first + way);
                line.lru = lru_at(first + way);
                line.valid = (flags_at(first + way) & 1) != 0;
                line.dirty = (flags_at(first + way) & 2) != 0;
            }
        }
    }
    io.u64(lruClock);
    io.u64(hits_);
    io.u64(misses_);
    io.u64(writebacks_);
}

} // namespace bh
