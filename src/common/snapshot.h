/**
 * @file
 * Binary state codec for mid-run simulation snapshots.
 *
 * StateWriter/StateReader serialize the mutable state of every simulation
 * component into a flat byte string (little-endian fixed-width integers,
 * doubles as IEEE-754 bit patterns — exact round trips, no text
 * formatting). Section tags (FNV-1a of a name) let a reader detect layout
 * drift early; every read is bounds-checked and failure is sticky, so a
 * truncated or corrupt blob reports `!ok()` instead of crashing — the
 * caller falls back to recomputing from scratch.
 *
 * Hash-table state needs more care than contents alone: a resumed run's
 * later snapshots must be *byte-identical* to an uninterrupted run's, and
 * a map is written in iteration order (MisraGries's reclaim scan also
 * drops the first stale slot an iteration finds, which decides which
 * stale keys a later snapshot holds, though never a simulated result).
 * saveUnorderedMap()/loadUnorderedMap() therefore record the bucket
 * count and the elements in iteration order, and rebuild by rehashing
 * to the saved bucket count and inserting in *reverse* order: libstdc++
 * prepends a new node to its bucket (and a new bucket's segment to the
 * global element list), so reverse insertion reproduces the exact
 * iteration order — and, with the bucket count pinned, the exact future
 * rehash points. test_snapshot locks this property in; if a standard
 * library ever breaks it, the round-trip tests fail loudly rather than
 * letting resumed snapshots drift.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bh {

/** FNV-1a over a byte string (section tags, snapshot checksums). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size,
        std::uint64_t seed = 14695981039346656037ull)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/**
 * FNV-1a folding 8 input bytes per round instead of 1 — the snapshot
 * checksum, where the input is megabytes and the byte-at-a-time loop's
 * serial multiply chain dominates save/restore. Same mixing, different
 * digest than fnv1a64 (stride is part of the function); snapshots store
 * only this variant, so the two never need to agree.
 */
inline std::uint64_t
fnv1a64Chunked(const void *data, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 14695981039346656037ull;
    while (size >= 8) {
        std::uint64_t chunk;
        std::memcpy(&chunk, p, 8);
        hash ^= chunk;
        hash *= 1099511628211ull;
        p += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Append-only binary encoder. */
class StateWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    u32(std::uint32_t v)
    {
        // One append instead of four push_backs: integer encodes are the
        // codec's hot path (a snapshot is millions of them), and each
        // push_back re-checks capacity.
        char tmp[4];
        for (int i = 0; i < 4; ++i)
            tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf.append(tmp, 4);
    }

    void
    u64(std::uint64_t v)
    {
        char tmp[8];
        for (int i = 0; i < 8; ++i)
            tmp[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        buf.append(tmp, 8);
    }

    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.append(s);
    }

    /** Section marker: layout drift fails fast at the first wrong tag. */
    void
    tag(const char *name)
    {
        u32(static_cast<std::uint32_t>(
            fnv1a64(name, std::strlen(name))));
    }

    /** Pre-size the buffer (e.g. to the previous snapshot's size). */
    void reserve(std::size_t n) { buf.reserve(n); }

    /** Append raw bytes (callers handle any endianness concerns). */
    void
    bytes(const void *p, std::size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }

    const std::string &data() const { return buf; }
    std::string take() { return std::move(buf); }

  private:
    std::string buf;
};

/** Bounds-checked binary decoder with a sticky failure flag. */
class StateReader
{
  public:
    explicit StateReader(std::string data)
        : owned(std::move(data)), buf(owned)
    {
    }

    /** Tag type selecting the borrowing constructor. */
    struct Borrow
    {
    };

    /**
     * Decode @p data in place without copying it. The caller must keep
     * the referenced bytes alive and unmodified for the reader's whole
     * lifetime — the restore path uses this to avoid duplicating a
     * multi-megabyte snapshot blob per read.
     */
    StateReader(std::string_view data, Borrow) : buf(data) {}

    bool ok() const { return ok_; }
    void fail() { ok_ = false; }
    std::size_t remaining() const { return buf.size() - pos; }
    bool atEnd() const { return ok_ && pos == buf.size(); }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return static_cast<std::uint8_t>(buf[pos - 1]);
    }

    bool b() { return u8() != 0; }

    std::uint32_t
    u32()
    {
        // memcpy + LE fix-up compiles to a single load; assembling the
        // value byte by byte through operator[] does not, and integer
        // decodes are the restore path's hot loop.
        if (!take(4))
            return 0;
        std::uint32_t v;
        std::memcpy(&v, buf.data() + pos - 4, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        v = __builtin_bswap32(v);
#endif
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v;
        std::memcpy(&v, buf.data() + pos - 8, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        v = __builtin_bswap64(v);
#endif
        return v;
    }

    double
    d()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        std::uint64_t n = u64();
        if (!ok_ || n > remaining()) {
            fail();
            return std::string();
        }
        std::string out(buf.substr(pos, n));
        pos += n;
        return out;
    }

    /** Consume a section marker; mismatch is a sticky failure. */
    bool
    tag(const char *name)
    {
        std::uint32_t expect = static_cast<std::uint32_t>(
            fnv1a64(name, std::strlen(name)));
        if (u32() != expect)
            fail();
        return ok_;
    }

    /**
     * Copy @p n raw bytes out; false (and sticky-fail) when short. An
     * empty vector's data() may be null, which memcpy must never see,
     * even for zero bytes.
     */
    bool
    bytes(void *p, std::size_t n)
    {
        if (!take(n))
            return false;
        if (n > 0)
            std::memcpy(p, buf.data() + pos - n, n);
        return true;
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || n > remaining()) {
            ok_ = false;
            return false;
        }
        pos += n;
        return true;
    }

    std::string owned;     ///< Backing storage of the owning constructor.
    std::string_view buf;  ///< The bytes being decoded (may be borrowed).
    std::size_t pos = 0;
    bool ok_ = true;
};

// --- Container helpers --------------------------------------------------

/** Save a vector; @p save_elem is (StateWriter&, const T&). */
template <class T, class SaveElem>
void
saveVector(StateWriter &w, const std::vector<T> &v, SaveElem save_elem)
{
    w.u64(v.size());
    for (const T &e : v)
        save_elem(w, e);
}

/**
 * Load a vector saved by saveVector(); @p load_elem is
 * (StateReader&, T*). The element count is validated against the bytes
 * remaining, so a corrupt length cannot drive a huge allocation.
 */
template <class T, class LoadElem>
bool
loadVector(StateReader &r, std::vector<T> *v, LoadElem load_elem)
{
    std::uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining()) {
        r.fail();
        return false;
    }
    v->clear();
    v->reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        T e{};
        load_elem(r, &e);
        v->push_back(std::move(e));
    }
    return r.ok();
}

inline void
saveU64Vector(StateWriter &w, const std::vector<std::uint64_t> &v)
{
    saveVector(w, v, [](StateWriter &sw, std::uint64_t e) { sw.u64(e); });
}

inline bool
loadU64Vector(StateReader &r, std::vector<std::uint64_t> *v)
{
    return loadVector(r, v, [](StateReader &sr, std::uint64_t *e) {
        *e = sr.u64();
    });
}

/**
 * saveU64Vector with a bulk fast path: on little-endian hosts the whole
 * array is one append/memcpy (bit-identical encoding to the element
 * loop). For megabyte-scale state — the LLC tag store — the per-element
 * loop is the snapshot codec's dominant cost.
 */
inline void
saveU64VectorBulk(StateWriter &w, const std::vector<std::uint64_t> &v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    w.u64(v.size());
    w.bytes(v.data(), v.size() * sizeof(std::uint64_t));
#else
    saveU64Vector(w, v);
#endif
}

/** Bulk counterpart of loadU64Vector (same encoding, memcpy decode). */
inline bool
loadU64VectorBulk(StateReader &r, std::vector<std::uint64_t> *v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining() / sizeof(std::uint64_t)) {
        r.fail();
        return false;
    }
    v->resize(n);
    return r.bytes(v->data(), n * sizeof(std::uint64_t));
#else
    return loadU64Vector(r, v);
#endif
}

inline void
saveU32Vector(StateWriter &w, const std::vector<std::uint32_t> &v)
{
    saveVector(w, v, [](StateWriter &sw, std::uint32_t e) { sw.u32(e); });
}

inline bool
loadU32Vector(StateReader &r, std::vector<std::uint32_t> *v)
{
    return loadVector(r, v, [](StateReader &sr, std::uint32_t *e) {
        *e = sr.u32();
    });
}

/** u32 counterpart of saveU64VectorBulk (same bulk fast path). */
inline void
saveU32VectorBulk(StateWriter &w, const std::vector<std::uint32_t> &v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    w.u64(v.size());
    w.bytes(v.data(), v.size() * sizeof(std::uint32_t));
#else
    w.u64(v.size());
    for (std::uint32_t e : v)
        w.u32(e);
#endif
}

/** Bulk counterpart of loadU32Vector's encoding above. */
inline bool
loadU32VectorBulk(StateReader &r, std::vector<std::uint32_t> *v)
{
    std::uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining() / sizeof(std::uint32_t)) {
        r.fail();
        return false;
    }
    v->resize(n);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    return r.bytes(v->data(), n * sizeof(std::uint32_t));
#else
    for (std::uint32_t &e : *v)
        e = r.u32();
    return r.ok();
#endif
}

inline void
saveUnsignedVector(StateWriter &w, const std::vector<unsigned> &v)
{
    saveVector(w, v, [](StateWriter &sw, unsigned e) {
        sw.u64(e);
    });
}

inline bool
loadUnsignedVector(StateReader &r, std::vector<unsigned> *v)
{
    return loadVector(r, v, [](StateReader &sr, unsigned *e) {
        *e = static_cast<unsigned>(sr.u64());
    });
}

inline void
saveDoubleVector(StateWriter &w, const std::vector<double> &v)
{
    saveVector(w, v, [](StateWriter &sw, double e) { sw.d(e); });
}

inline bool
loadDoubleVector(StateReader &r, std::vector<double> *v)
{
    return loadVector(r, v, [](StateReader &sr, double *e) {
        *e = sr.d();
    });
}

inline void
saveBoolVector(StateWriter &w, const std::vector<bool> &v)
{
    w.u64(v.size());
    for (bool e : v)
        w.b(e);
}

inline bool
loadBoolVector(StateReader &r, std::vector<bool> *v)
{
    std::uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining()) {
        r.fail();
        return false;
    }
    v->assign(n, false);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i)
        (*v)[i] = r.b();
    return r.ok();
}

/**
 * Save an unordered_map: bucket count, then the elements in iteration
 * order (see the file comment for why order is part of the state).
 */
template <class Map, class SaveKey, class SaveVal>
void
saveUnorderedMap(StateWriter &w, const Map &m, SaveKey save_key,
                 SaveVal save_val)
{
    w.u64(m.bucket_count());
    w.u64(m.size());
    for (const auto &kv : m) {
        save_key(w, kv.first);
        save_val(w, kv.second);
    }
}

/**
 * Largest bucket count loadUnorderedMap() rebuilds (128 MB of bucket
 * array). Snapshotted tables hold the rows, lines or threads one run
 * touches, far fewer than this, so a larger count is read as corrupt:
 * rejecting it costs a recompute, while honoring it would allocate
 * whatever a damaged count asks for.
 */
constexpr std::uint64_t kMaxSnapshotBuckets = 1ull << 24;

/**
 * Rebuild a map saved by saveUnorderedMap() with identical contents,
 * bucket count, AND iteration order (reverse-insertion reconstruction).
 */
template <class Map, class LoadKey, class LoadVal>
bool
loadUnorderedMap(StateReader &r, Map *m, LoadKey load_key,
                 LoadVal load_val)
{
    using Key = typename Map::key_type;
    using Val = typename Map::mapped_type;
    std::uint64_t buckets = r.u64();
    std::uint64_t n = r.u64();
    if (!r.ok() || n > r.remaining() || buckets > kMaxSnapshotBuckets) {
        r.fail();
        return false;
    }
    std::vector<std::pair<Key, Val>> items;
    items.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        Key k{};
        Val v{};
        load_key(r, &k);
        load_val(r, &v);
        items.emplace_back(std::move(k), std::move(v));
    }
    if (!r.ok())
        return false;
    // Rebuild into a fresh table: a never-inserted map sits on the
    // implementation's placeholder bucket count (1 on libstdc++), which
    // rehash() cannot produce — so only rehash when the saved count
    // differs from the fresh default. Saved counts of ever-grown maps
    // are rehash-stable values (primes on libstdc++), so rehash()
    // reproduces them exactly, and with the count pinned the future
    // growth schedule matches the original's too.
    Map fresh;
    fresh.max_load_factor(m->max_load_factor());
    if (buckets != fresh.bucket_count())
        fresh.rehash(static_cast<std::size_t>(buckets));
    for (auto it = items.rbegin(); it != items.rend(); ++it)
        fresh.emplace(std::move(it->first), std::move(it->second));
    *m = std::move(fresh);
    return true;
}

// --- Snapshot files -----------------------------------------------------

/**
 * Write @p data to @p path atomically: a temp file in the same directory
 * is written, flushed, and renamed over the target, so a crash (or
 * SIGKILL) mid-save leaves either the previous snapshot or the new one —
 * never a torn file.
 */
bool writeFileAtomic(const std::string &path, const std::string &data,
                     std::string *error);

/** Read a whole file; false when it does not exist or cannot be read. */
bool readFile(const std::string &path, std::string *out);

} // namespace bh
