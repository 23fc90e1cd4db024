/**
 * @file
 * Binary state codec for mid-run simulation snapshots.
 *
 * StateWriter/StateReader encode and decode a flat byte string
 * (little-endian fixed-width integers, doubles as IEEE-754 bit patterns
 * — exact round trips, no text formatting). Section tags (FNV-1a of a
 * name) let a reader detect layout drift early; every read is
 * bounds-checked and failure is sticky, so a truncated or corrupt blob
 * reports `!ok()` instead of crashing — the caller falls back to
 * recomputing from scratch. Each simulation component states its
 * mutable state once, in a `transfer(StateIo &)` body that StateIo runs
 * in either direction.
 *
 * Hash-table state needs more care than contents alone: a resumed run's
 * later snapshots must be *byte-identical* to an uninterrupted run's, and
 * a map is written in iteration order (MisraGries's reclaim scan also
 * drops the first stale slot an iteration finds, which decides which
 * stale keys a later snapshot holds, though never a simulated result).
 * StateIo::map() therefore records the bucket count and the elements
 * in iteration order, and rebuilds by rehashing to the saved bucket
 * count and inserting in *reverse* order: libstdc++ prepends a new node
 * to its bucket (and a new bucket's segment to the global element
 * list), so reverse insertion reproduces the exact iteration order —
 * and, with the bucket count pinned, the exact future rehash points.
 * test_snapshot locks this property in; if a standard library ever
 * breaks it, the round-trip tests fail loudly rather than letting
 * resumed snapshots drift.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
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

/**
 * Largest bucket count a snapshot load rebuilds (128 MB of bucket
 * array). Snapshotted tables hold the rows, lines or threads one run
 * touches, far fewer than this, so a larger count is read as corrupt:
 * rejecting it costs a recompute, while honoring it would allocate
 * whatever a damaged count asks for.
 */
constexpr std::uint64_t kMaxSnapshotBuckets = 1ull << 24;

/**
 * Direction-carrying archive over a StateWriter or a StateReader, so a
 * component writes its snapshot state once: one `transfer(StateIo &)`
 * body both saves (each call appends the value it is handed) and loads
 * (each call overwrites it). Every call names its wire width; an integer
 * of any type travels at the width named, never one deduced from its
 * type (most `unsigned` fields travel as u64). A load fails sticky, like
 * StateReader, and the caller discards a failed load's partial state.
 *
 * What is truly one-sided sits under `if (io.loading())` in the body:
 * rebuilding derived state after a load, or a save-only walk such as
 * draining a copy of a heap. Load-only checks are `require`, and
 * `count` / `present` for lengths and presence flags fixed by the
 * configuration.
 */
class StateIo
{
  public:
    explicit StateIo(StateWriter &w) : w_(&w) {}
    explicit StateIo(StateReader &r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    /** False once a load has failed; always true while saving. */
    bool ok() const { return r_ == nullptr || r_->ok(); }

    /** Fail the load unless @p cond holds; saving ignores it. */
    void
    require(bool cond)
    {
        if (r_ != nullptr && !cond)
            r_->fail();
    }

    void
    tag(const char *name)
    {
        if (r_ != nullptr)
            r_->tag(name);
        else
            w_->tag(name);
    }

    void
    b(bool &v)
    {
        if (r_ != nullptr)
            v = r_->b();
        else
            w_->b(v);
    }

    void
    d(double &v)
    {
        if (r_ != nullptr)
            v = r_->d();
        else
            w_->d(v);
    }

    template <class T>
    void
    u8(T &v)
    {
        static_assert(std::is_integral_v<T>, "u8 carries an integer");
        if (r_ != nullptr)
            v = static_cast<T>(r_->u8());
        else
            w_->u8(static_cast<std::uint8_t>(v));
    }

    template <class T>
    void
    u32(T &v)
    {
        static_assert(std::is_integral_v<T>, "u32 carries an integer");
        if (r_ != nullptr)
            v = static_cast<T>(r_->u32());
        else
            w_->u32(static_cast<std::uint32_t>(v));
    }

    template <class T>
    void
    u64(T &v)
    {
        static_assert(std::is_integral_v<T>, "u64 carries an integer");
        if (r_ != nullptr)
            v = static_cast<T>(r_->u64());
        else
            w_->u64(static_cast<std::uint64_t>(v));
    }

    /**
     * A u64 length fixed by the configuration: written on save; a load
     * fails unless it reads @p expected.
     */
    void
    count(std::uint64_t expected)
    {
        std::uint64_t n = expected;
        u64(n);
        require(n == expected);
    }

    /** A presence flag fixed by the configuration (see count()). */
    void
    present(bool expected)
    {
        bool v = expected;
        b(v);
        require(v == expected);
    }

    /**
     * A vector whose length is configuration, as its u64 count and then
     * each element as a u64. The load checks the count and overwrites
     * the elements in place. A vector of std::uint64_t is one bulk copy
     * on little-endian hosts: the same bytes as the element loop.
     */
    template <class T>
    void
    u64s(std::vector<T> &v)
    {
        count(v.size());
        if constexpr (std::is_same_v<T, std::uint64_t> && kLittleEndian)
            raw(v.data(), v.size() * sizeof(T));
        else
            for (T &e : v)
                u64(e);
    }

    /** u64s() with each element as a u32. */
    template <class T>
    void
    u32s(std::vector<T> &v)
    {
        count(v.size());
        if constexpr (std::is_same_v<T, std::uint32_t> && kLittleEndian)
            raw(v.data(), v.size() * sizeof(T));
        else
            for (T &e : v)
                u32(e);
    }

    /** u64s() with each element as an IEEE-754 bit pattern. */
    void
    doubles(std::vector<double> &v)
    {
        count(v.size());
        for (double &e : v)
            d(e);
    }

    /** u64s() with each element as one byte. */
    void
    bools(std::vector<bool> &v)
    {
        count(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            bool e = v[i];
            b(e);
            v[i] = e;
        }
    }

    /**
     * A container whose length is state (a vector or deque), as its u64
     * length and then each element through @p elem, called as
     * (StateIo &, T &). A load rebuilds it from default elements; a
     * length beyond the bytes left fails before anything is allocated.
     */
    template <class Seq, class Elem>
    void
    list(Seq &seq, Elem elem)
    {
        std::uint64_t n = seq.size();
        u64(n);
        if (r_ == nullptr) {
            for (auto &e : seq)
                elem(*this, e);
            return;
        }
        require(n <= r_->remaining());
        seq.clear();
        for (std::uint64_t i = 0; i < n && r_->ok(); ++i) {
            typename Seq::value_type e{};
            elem(*this, e);
            seq.push_back(std::move(e));
        }
    }

    /**
     * An unordered_map with its bucket count and iteration order (see
     * the file comment), each element through @p elem, called as
     * (StateIo &, Key &, Value &). Saving passes a copy of the key.
     */
    template <class Map, class Elem>
    void
    map(Map &m, Elem elem)
    {
        using Key = typename Map::key_type;
        using Val = typename Map::mapped_type;
        if (r_ == nullptr) {
            w_->u64(m.bucket_count());
            w_->u64(m.size());
            for (auto &kv : m) {
                Key k = kv.first;
                elem(*this, k, kv.second);
            }
            return;
        }
        std::uint64_t buckets = r_->u64();
        std::uint64_t n = r_->u64();
        require(n <= r_->remaining() && buckets <= kMaxSnapshotBuckets);
        std::vector<std::pair<Key, Val>> items;
        if (!r_->ok())
            return;
        items.reserve(n);
        for (std::uint64_t i = 0; i < n && r_->ok(); ++i) {
            Key k{};
            Val v{};
            elem(*this, k, v);
            items.emplace_back(std::move(k), std::move(v));
        }
        if (!r_->ok())
            return;
        // Rebuild into a fresh table: a never-inserted map sits on the
        // implementation's placeholder bucket count (1 on libstdc++),
        // which rehash() cannot produce, so only rehash when the saved
        // count differs from the fresh default. Saved counts of
        // ever-grown maps are rehash-stable values (primes on
        // libstdc++), so rehash() reproduces them exactly, and with the
        // count pinned the future growth schedule matches too.
        Map fresh;
        fresh.max_load_factor(m.max_load_factor());
        if (buckets != fresh.bucket_count())
            fresh.rehash(static_cast<std::size_t>(buckets));
        for (auto it = items.rbegin(); it != items.rend(); ++it)
            fresh.emplace(std::move(it->first), std::move(it->second));
        m = std::move(fresh);
    }

  private:
    static constexpr bool kLittleEndian =
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
        true;
#else
        false;
#endif

    /** Host-order bytes: only for little-endian integer arrays. */
    void
    raw(void *p, std::size_t n)
    {
        if (r_ != nullptr)
            r_->bytes(p, n);
        else
            w_->bytes(p, n);
    }

    StateWriter *w_ = nullptr;
    StateReader *r_ = nullptr;
};

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
