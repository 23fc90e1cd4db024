/**
 * @file
 * Minimal JSON document model used for stats export, the result store,
 * the sweep-service wire protocol and golden files.
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
 * payload's bytes for a later parse()).
 *
 * Untrusted input. parse() is also the decoder for sweep-service frames,
 * so it bounds its own work: arrays and objects nest at most
 * kMaxParseDepth deep (deeper input fails with "nesting too deep"), and
 * an object's duplicate keys are merged in linear time, keeping the last
 * value at the first key's position as repeated set() calls would.
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

    using Storage =
        std::variant<std::monostate, bool, double, std::unique_ptr<std::string>,
                     std::unique_ptr<Array>, std::unique_ptr<Object>>;

    void dumpTo(std::string &out, int indent, int depth) const;

    Storage value_;
};

} // namespace bh
