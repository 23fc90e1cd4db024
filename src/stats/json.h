/**
 * @file
 * Minimal JSON document model used for stats export, the result store's
 * record lines and golden files, and the cursor that reads JSON text
 * without building one.
 *
 * The model is deliberately small: an ordered object (insertion order is
 * preserved so serialization is deterministic), arrays, strings, numbers,
 * booleans, and null.
 *
 * Layout and ownership. A JsonValue is 16 bytes: a std::variant whose
 * index is the Type. Null, bool and double live inline; a string, an
 * array or an object is owned through a std::unique_ptr, so a sweep
 * record's hundreds of histogram pairs cost one small node each rather
 * than a node that carries every kind's storage. Copies are deep; a
 * moved-from value is null. Object members stay a vector of (key, value)
 * pairs in insertion order, and set() on an existing key replaces its
 * value in place.
 *
 * Number codec. dump() prints an integral value within ±9e15 as an
 * integer (std::to_chars of a long long, the bytes of printf's "%lld")
 * and every other finite value with std::to_chars(general, 17), which is
 * defined as printf's "%.17g", so parse(dump(x)) == x bit-for-bit.
 * Non-finite values print as null. parse() accepts numbers only in the
 * RFC 8259 grammar (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`)
 * and rounds them exactly as strtod does; "inf", "nan", hex, a leading
 * '+', leading zeros, and a '.' without digits on both sides are errors.
 * A number too large for a double reads as ±inf and one too small as ±0,
 * again as strtod reads them. A plain integer of at most 15 digits (no
 * fraction, no exponent) is below 2^53, so parse() builds it as an exact
 * integer, which is strtod's value bit for bit ("-0" included); every
 * other token goes through std::from_chars. isU64() is the one gate for
 * reading a count from untrusted input: finite, integral, in [0, 2^64).
 *
 * No-tree mode. scan() runs the same parser with a null output: the same
 * grammar, depth cap and error messages, but nothing is stored, nothing
 * is allocated and no number is converted. It reports each top-level
 * member of an object as its key and the raw bytes of its value, so a
 * caller can read a few members and keep the rest as text (the result
 * store reads a line's version, kind and key this way and keeps the
 * payload's bytes for a later decode with a JsonCursor).
 *
 * Untrusted input. parse() decodes the small members of result-store
 * lines, which another process wrote and a crash may have torn, so it
 * bounds its own work: arrays and objects nest at most kMaxParseDepth
 * deep (deeper input fails with "nesting too deep"), and an object's
 * duplicate keys are merged in linear time, keeping the last value at
 * the first key's position as repeated set() calls would.
 *
 * Cursor. JsonCursor is the lexer parse() and scan() run on: whitespace,
 * literals, strings, numbers (the same grammar and conversion) and
 * skip(), which checks one value of any kind as scan() does. A decoder
 * of a known document walks it with the cursor and fills its own types
 * straight from the bytes, with no tree (experimentResultFromJson() and
 * histogramFromJson() do); JsonFields tracks which members of an object
 * decoded, so that the last of duplicate keys decides as in parse().
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace bh {

/** One JSON value (null, bool, number, string, array, or object). */
class JsonValue
{
  public:
    /** The kinds of value, in the order of the storage variant. */
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    using Array = std::vector<JsonValue>;
    using Object = std::vector<std::pair<std::string, JsonValue>>;

    /** Deepest array/object nesting parse() accepts. */
    static constexpr int kMaxParseDepth = 256;

    JsonValue() = default;
    JsonValue(bool b) : value_(b) {}
    JsonValue(double v) : value_(v) {}
    JsonValue(int v) : value_(static_cast<double>(v)) {}
    JsonValue(unsigned v) : value_(static_cast<double>(v)) {}
    JsonValue(std::int64_t v) : value_(static_cast<double>(v)) {}
    JsonValue(std::uint64_t v) : value_(static_cast<double>(v)) {}
    JsonValue(const char *s) : value_(std::make_unique<std::string>(s)) {}
    JsonValue(std::string s)
        : value_(std::make_unique<std::string>(std::move(s)))
    {}

    JsonValue(const JsonValue &other);
    JsonValue(JsonValue &&other) noexcept : value_(std::move(other.value_))
    {
        other.value_.emplace<std::monostate>();
    }
    JsonValue &operator=(const JsonValue &other);
    JsonValue &
    operator=(JsonValue &&other) noexcept
    {
        // Take @p other's value before releasing ours, which may own it.
        Storage taken = std::move(other.value_);
        other.value_.emplace<std::monostate>();
        value_ = std::move(taken);
        return *this;
    }

    /** An empty array value. */
    static JsonValue array();

    /** An empty object value. */
    static JsonValue object();

    Type type() const { return static_cast<Type>(value_.index()); }
    bool isNull() const { return type() == Type::kNull; }
    bool isBool() const { return type() == Type::kBool; }
    bool isNumber() const { return type() == Type::kNumber; }
    bool isString() const { return type() == Type::kString; }
    bool isArray() const { return type() == Type::kArray; }
    bool isObject() const { return type() == Type::kObject; }
    /**
     * Whether this is a number asU64() reads exactly: finite, integral
     * and in [0, 2^64). Decoders of untrusted input check this first.
     */
    bool isU64() const;

    bool asBool() const;
    double asDouble() const;
    std::uint64_t asU64() const;
    const std::string &asString() const;

    // --- arrays -----------------------------------------------------
    /** Append @p value to an array (value must be an array). */
    void push(JsonValue value);

    /** Number of elements (array) or members (object). */
    std::size_t size() const;

    /** Element @p i of an array. */
    const JsonValue &at(std::size_t i) const;

    // --- objects ----------------------------------------------------
    /** Set member @p key (replaces an existing member in place). */
    void set(const std::string &key, JsonValue value);

    /** Member @p key, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key; fatal when absent. */
    const JsonValue &get(const std::string &key) const;

    /** Object members in insertion order. */
    const Object &members() const;

    // --- serialization ----------------------------------------------
    /**
     * Serialize. @p indent < 0 emits compact single-line JSON; >= 0
     * pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text into @p out.
     * @param[out] error Filled with a message on failure (optional).
     * @return false on malformed input; @p out is then unspecified.
     */
    static bool parse(std::string_view text, JsonValue *out,
                      std::string *error = nullptr);

    /** Parse @p text; fatal on malformed input (for trusted files). */
    static JsonValue parseOrDie(std::string_view text);

    /** Receives one top-level object member from scan(): its decoded key
     *  and the raw bytes of its value, without surrounding whitespace. */
    using MemberVisitor =
        std::function<void(const std::string &key, std::string_view raw)>;

    /**
     * Check @p text exactly as parse() would, without building a tree:
     * the same grammar, depth cap and error messages, with no allocation
     * and no number conversion. When the document is an object, @p visit
     * (if set) sees each of its top-level members in document order,
     * duplicates included; parse() keeps the last. Members are reported
     * as they are read, so a caller discards them when scan() fails.
     * @param[out] error Filled with parse()'s message on failure.
     */
    static bool scan(std::string_view text, const MemberVisitor &visit = {},
                     std::string *error = nullptr);

    bool operator==(const JsonValue &other) const;

  private:
    friend class JsonParser;
    friend class JsonCursor;

    /** isU64() of the number @p v. */
    static bool isU64Number(double v);

    using Storage =
        std::variant<std::monostate, bool, double, std::unique_ptr<std::string>,
                     std::unique_ptr<Array>, std::unique_ptr<Object>>;

    void dumpTo(std::string &out, int indent, int depth) const;

    Storage value_;
};

/**
 * A forward cursor over JSON text with parse()'s grammar. Every read
 * first skips whitespace, and returns false on malformed text or on a
 * token of another kind; the position is then unspecified, and a caller
 * that wants to go on reads through JsonFields, which rewinds. Depths
 * count the arrays and objects that enclose a value, as parse()'s cap
 * does: a value at depth kMaxParseDepth may not be an array or an
 * object.
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view text)
        : p(text.data()), end(text.data() + text.size())
    {}

    /** Consume @p c when it is the next token. */
    bool
    consume(char c)
    {
        skipWs();
        if (p >= end || *p != c)
            return false;
        ++p;
        return true;
    }

    /** Whether nothing but whitespace is left. */
    bool
    atEnd()
    {
        skipWs();
        return p == end;
    }

    /** Read a string into @p out (nullptr: check it only). */
    bool string(std::string *out);

    /**
     * Read an object key and the ':' after it. @p out views the text, or,
     * when the key has escapes, a buffer the cursor reuses for the next
     * key.
     */
    bool key(std::string_view *out);

    /** Read a number exactly as parse() converts it (nullptr: check it
     *  only). */
    bool number(double *out);

    /** Read a number that passes JsonValue::isU64(). */
    bool u64(std::uint64_t *out);

    /** Read true or false. */
    bool boolean(bool *out);

    /** Check one value of any kind at @p depth, as scan() does. */
    bool skip(int depth);

    /**
     * Walk the object at @p depth: @p member(key) is called with the
     * cursor at each member's value, which it must read.
     */
    template <class Member>
    bool
    object(int depth, Member &&member)
    {
        if (depth >= JsonValue::kMaxParseDepth || !consume('{'))
            return false;
        if (consume('}'))
            return true;
        do {
            std::string_view name;
            if (!key(&name) || !member(name))
                return false;
        } while (consume(','));
        return consume('}');
    }

    /** Walk the array at @p depth: @p element() reads each element. */
    template <class Element>
    bool
    array(int depth, Element &&element)
    {
        if (depth >= JsonValue::kMaxParseDepth || !consume('['))
            return false;
        if (consume(']'))
            return true;
        do {
            if (!element())
                return false;
        } while (consume(','));
        return consume(']');
    }

  private:
    friend class JsonParser;
    friend class JsonFields;

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    /** Record @p msg (a literal) unless an earlier error is recorded. */
    bool
    fail(const char *msg)
    {
        if (err == nullptr)
            err = msg;
        return false;
    }

    bool literal(const char *word);
    bool digits(const char *&q) const;

    const char *p;
    const char *end;
    const char *err = nullptr; ///< The first error message, if any.
    std::string keyBuffer;     ///< key()'s decoded escaped key.
};

/**
 * The members of one object that a decoder reads, one bit each. A read
 * sets its member's bit when the value decodes and clears it when not;
 * a refused value is checked again from its start by skip(), so a member
 * of a wrong kind or range leaves the walk going. With duplicate keys
 * the last occurrence therefore decides, as parse() keeps the last.
 * Every read returns false only when the text is malformed.
 */
class JsonFields
{
  public:
    /** Members of the object at @p object_depth. */
    JsonFields(JsonCursor &cursor, int object_depth)
        : cursor(cursor), depth(object_depth + 1)
    {}

    /** Read the member's value with @p decode, into bit @p bit. */
    template <class Decode>
    bool
    read(unsigned bit, Decode &&decode)
    {
        cursor.skipWs();
        const char *start = cursor.p;
        if (decode()) {
            bits |= 1u << bit;
            return true;
        }
        bits &= ~(1u << bit);
        cursor.p = start;
        cursor.err = nullptr;
        return cursor.skip(depth);
    }

    bool
    number(unsigned bit, double *out)
    {
        return read(bit, [&] { return cursor.number(out); });
    }

    bool
    u64(unsigned bit, std::uint64_t *out)
    {
        return read(bit, [&] { return cursor.u64(out); });
    }

    bool
    boolean(unsigned bit, bool *out)
    {
        return read(bit, [&] { return cursor.boolean(out); });
    }

    bool
    string(unsigned bit, std::string *out)
    {
        return read(bit, [&] { return cursor.string(out); });
    }

    /** Check a member no bit tracks. */
    bool skip() { return cursor.skip(depth); }

    /** Whether bit @p bit is set. */
    bool has(unsigned bit) const { return (bits >> bit) & 1u; }

    /** Whether bits [0, @p count) are all set. */
    bool
    all(unsigned count) const
    {
        const std::uint32_t mask = (1u << count) - 1;
        return (bits & mask) == mask;
    }

    /** The members' depth, for a reader of a nested value. */
    int memberDepth() const { return depth; }

  private:
    JsonCursor &cursor;
    int depth;
    std::uint32_t bits = 0;
};

} // namespace bh
