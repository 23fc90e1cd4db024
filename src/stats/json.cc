#include "stats/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

#include "common/log.h"

namespace bh {

static_assert(sizeof(JsonValue) <= 16, "JsonValue must stay a 16-byte node");

namespace {

/** The owned payload of kind T (string, Array or Object) in @p value. */
template <class T, class Storage>
auto &
owned(Storage &value)
{
    return *std::get<std::unique_ptr<T>>(value);
}

} // namespace

JsonValue::JsonValue(const JsonValue &other)
{
    *this = other;
}

JsonValue &
JsonValue::operator=(const JsonValue &other)
{
    if (this == &other)
        return *this;
    // The copy is complete before the old value (which may own @p other)
    // is destroyed.
    value_ = std::visit(
        [](const auto &v) -> Storage {
            if constexpr (requires { *v; })
                return std::make_unique<std::remove_cvref_t<decltype(*v)>>(
                    *v);
            else
                return v;
        },
        other.value_);
    return *this;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.value_ = std::make_unique<Array>();
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.value_ = std::make_unique<Object>();
    return v;
}

bool
JsonValue::asBool() const
{
    BH_ASSERT(isBool(), "JsonValue: not a bool");
    return std::get<bool>(value_);
}

double
JsonValue::asDouble() const
{
    BH_ASSERT(isNumber(), "JsonValue: not a number");
    return std::get<double>(value_);
}

bool
JsonValue::isU64() const
{
    // 2^64 exactly; NaN and ±inf fail one of the comparisons.
    constexpr double kLimit = 18446744073709551616.0;
    if (!isNumber())
        return false;
    const double v = std::get<double>(value_);
    return v >= 0.0 && v < kLimit && v == std::floor(v);
}

std::uint64_t
JsonValue::asU64() const
{
    BH_ASSERT(isU64(), "JsonValue: not a u64");
    return static_cast<std::uint64_t>(std::get<double>(value_));
}

const std::string &
JsonValue::asString() const
{
    BH_ASSERT(isString(), "JsonValue: not a string");
    return owned<std::string>(value_);
}

void
JsonValue::push(JsonValue value)
{
    BH_ASSERT(isArray(), "JsonValue: push on non-array");
    owned<Array>(value_).push_back(std::move(value));
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return owned<Array>(value_).size();
    if (isObject())
        return owned<Object>(value_).size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    BH_ASSERT(isArray() && i < owned<Array>(value_).size(),
              "JsonValue: bad index");
    return owned<Array>(value_)[i];
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    BH_ASSERT(isObject(), "JsonValue: set on non-object");
    Object &members = owned<Object>(value_);
    for (auto &member : members) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    members.emplace_back(key, std::move(value));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &member : owned<Object>(value_))
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    const JsonValue *v = find(key);
    BH_ASSERT(v != nullptr, "JsonValue: missing object member");
    return *v;
}

const JsonValue::Object &
JsonValue::members() const
{
    BH_ASSERT(isObject(), "JsonValue: members of non-object");
    return owned<Object>(value_);
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (value_.index() != other.value_.index())
        return false;
    return std::visit(
        [&other](const auto &a) {
            const auto &b = std::get<std::remove_cvref_t<decltype(a)>>(
                other.value_);
            if constexpr (requires { *a; })
                return *a == *b;
            else
                return a == b;
        },
        value_);
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    const char *run = s.data();
    const char *end = s.data() + s.size();
    for (const char *c = run; c != end; ++c) {
        const char *escape = nullptr;
        switch (*c) {
          case '"': escape = "\\\""; break;
          case '\\': escape = "\\\\"; break;
          case '\n': escape = "\\n"; break;
          case '\r': escape = "\\r"; break;
          case '\t': escape = "\\t"; break;
          default:
            if (static_cast<unsigned char>(*c) >= 0x20)
                continue;
        }
        out.append(run, c);
        run = c + 1;
        if (escape) {
            out += escape;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(*c));
            out += buf;
        }
    }
    out.append(run, end);
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    // JSON has no inf/nan; emit null so the document stays parseable by
    // any consumer (a throttled-to-zero IPC can make a slowdown inf).
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Integral values within the exactly-representable range print as
    // integers (counter fields stay readable); everything else uses 17
    // significant digits so parse(dump(x)) == x bit-for-bit. Both forms
    // are the bytes printf's "%lld" and "%.17g" would write.
    char buf[32];
    std::to_chars_result r =
        v == std::floor(v) && std::fabs(v) < 9.0e15
            ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
            : std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

void
appendIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/**
 * Merge an object's duplicate keys: the last value wins, at the first
 * key's position, as repeated set() calls would leave it. Small objects
 * compare keys pairwise; larger ones index them, so an object with many
 * keys costs linear time.
 */
void
mergeDuplicateKeys(JsonValue::Object &members)
{
    constexpr std::size_t kPairwiseLimit = 16;
    const bool indexed = members.size() > kPairwiseLimit;
    // Views into keys at their final positions [0, kept), which no later
    // step moves.
    std::unordered_map<std::string_view, std::size_t> firstAt;
    if (indexed)
        firstAt.reserve(members.size());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        std::size_t first = kept;
        if (indexed) {
            auto it = firstAt.find(members[i].first);
            if (it != firstAt.end())
                first = it->second;
        } else {
            for (std::size_t j = 0; j < kept; ++j) {
                if (members[j].first == members[i].first) {
                    first = j;
                    break;
                }
            }
        }
        if (first < kept) {
            members[first].second = std::move(members[i].second);
            continue;
        }
        if (kept != i)
            members[kept] = std::move(members[i]);
        if (indexed)
            firstAt.emplace(members[kept].first, kept);
        ++kept;
    }
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(kept),
                  members.end());
}

} // namespace

/**
 * Recursive-descent JSON parser over a raw character range. A null
 * output selects the no-tree mode: the same grammar, depth cap and error
 * messages, with nothing stored and no number converted.
 */
class JsonParser
{
  public:
    JsonParser(std::string_view text,
               const JsonValue::MemberVisitor *visit = nullptr)
        : p(text.data()), end(text.data() + text.size()), visit(visit)
    {}

    /** Parse the whole range into @p out (nullptr: check it only). */
    bool
    parse(JsonValue *out, std::string *error)
    {
        bool ok = parseValue(out, 0) && (skipWs(), p == end);
        if (!ok && error)
            *error = err.empty() ? "trailing garbage" : err;
        return ok;
    }

  private:
    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    fail(const char *msg)
    {
        if (err.empty())
            err = msg;
        return false;
    }

    bool
    literal(const char *word)
    {
        const char *q = p;
        while (*word) {
            if (q >= end || *q != *word)
                return false;
            ++q;
            ++word;
        }
        p = q;
        return true;
    }

    /** Parse one value enclosed by @p depth arrays/objects. */
    bool
    parseValue(JsonValue *out, int depth)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case 'n':
            if (!literal("null"))
                return fail("bad literal");
            if (out)
                out->value_ = std::monostate{};
            return true;
          case 't':
            if (!literal("true"))
                return fail("bad literal");
            if (out)
                out->value_ = true;
            return true;
          case 'f':
            if (!literal("false"))
                return fail("bad literal");
            if (out)
                out->value_ = false;
            return true;
          case '"': {
            if (!out)
                return parseString(nullptr);
            auto s = std::make_unique<std::string>();
            if (!parseString(s.get()))
                return false;
            out->value_ = std::move(s);
            return true;
          }
          case '[':
          case '{':
            if (depth >= JsonValue::kMaxParseDepth)
                return fail("nesting too deep");
            return *p == '[' ? parseArray(out, depth + 1)
                             : parseObject(out, depth + 1);
          default: return parseNumber(out);
        }
    }

    /** Parse a string literal into @p out (nullptr: check it only). */
    bool
    parseString(std::string *out)
    {
        ++p; // opening quote
        if (out)
            out->clear();
        while (true) {
            const char *run = p;
            while (p < end && *p != '"' && *p != '\\')
                ++p;
            if (out)
                out->append(run, p);
            if (p >= end)
                return fail("unterminated string");
            if (*p == '"')
                break;
            ++p; // backslash
            if (p >= end)
                return fail("bad escape");
            char c = 0;
            switch (*p) {
              case '"': c = '"'; break;
              case '\\': c = '\\'; break;
              case '/': c = '/'; break;
              case 'n': c = '\n'; break;
              case 'r': c = '\r'; break;
              case 't': c = '\t'; break;
              case 'b': c = '\b'; break;
              case 'f': c = '\f'; break;
              case 'u': {
                if (end - p < 5)
                    return fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 1; i <= 4; ++i) {
                    char h = p[i];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                if (out)
                    appendUtf8(*out, code);
                p += 5;
                continue;
              }
              default: return fail("bad escape");
            }
            if (out)
                *out += c;
            ++p;
        }
        ++p; // closing quote
        return true;
    }

    /**
     * Append BMP code point @p code as UTF-8. The simulator only emits
     * ASCII control escapes; the rest is decoded for completeness.
     */
    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    /** Skip one or more digits at @p q; false when there are none. */
    bool
    digits(const char *&q) const
    {
        if (q >= end || !isDigit(*q))
            return false;
        while (q < end && isDigit(*q))
            ++q;
        return true;
    }

    bool
    parseNumber(JsonValue *out)
    {
        // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
        const char *q = p;
        const bool negative = q < end && *q == '-';
        if (negative)
            ++q;
        const char *int_begin = q;
        if (q < end && *q == '0')
            ++q;
        else if (q >= end || *q < '1' || *q > '9' || !digits(q))
            return fail("bad number");
        const char *int_end = q;
        if (q < end && *q == '.') {
            ++q;
            if (!digits(q))
                return fail("bad number");
        }
        if (q < end && (*q == 'e' || *q == 'E')) {
            ++q;
            if (q < end && (*q == '+' || *q == '-'))
                ++q;
            if (!digits(q))
                return fail("bad number");
        }
        if (!out) {
            p = q;
            return true;
        }
        double v = 0.0;
        if (int_end == q && int_end - int_begin <= 15) {
            // A plain integer below 10^15 < 2^53: exact as an integer, so
            // converting it gives strtod's bits (negating keeps "-0").
            std::int64_t n = 0;
            for (const char *d = int_begin; d < int_end; ++d)
                n = n * 10 + (*d - '0');
            v = negative ? -static_cast<double>(n) : static_cast<double>(n);
        } else {
            auto [num_end, ec] = std::from_chars(p, q, v);
            if (ec == std::errc::result_out_of_range)
                // Beyond a double's range: read it as strtod does (±inf,
                // ±0).
                v = std::strtod(std::string(p, q).c_str(), nullptr);
            else if (ec != std::errc() || num_end != q)
                return fail("bad number");
        }
        p = q;
        out->value_ = v;
        return true;
    }

    bool
    parseArray(JsonValue *out, int depth)
    {
        ++p; // '['
        std::unique_ptr<JsonValue::Array> elements;
        if (out)
            elements = std::make_unique<JsonValue::Array>();
        skipWs();
        if (p < end && *p == ']') {
            ++p;
        } else {
            // Most arrays in a record are a histogram's [index, count]
            // pairs: room for two up front saves a regrowth per pair.
            if (elements)
                elements->reserve(2);
            while (true) {
                if (!parseValue(elements ? &elements->emplace_back()
                                         : nullptr,
                                depth))
                    return false;
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    break;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (out)
            out->value_ = std::move(elements);
        return true;
    }

    bool
    parseObject(JsonValue *out, int depth)
    {
        ++p; // '{'
        std::unique_ptr<JsonValue::Object> members;
        if (out)
            members = std::make_unique<JsonValue::Object>();
        // Only the top-level object's members are reported, and only
        // their keys are decoded in the no-tree mode.
        const bool visiting = !out && visit && depth == 1;
        skipWs();
        if (p < end && *p == '}') {
            ++p;
        } else {
            while (true) {
                skipWs();
                if (p >= end || *p != '"')
                    return fail("expected object key");
                std::string *key = visiting ? &visitKey : nullptr;
                JsonValue *value = nullptr;
                if (members) {
                    auto &member = members->emplace_back();
                    key = &member.first;
                    value = &member.second;
                }
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                skipWs();
                const char *raw = p;
                if (!parseValue(value, depth))
                    return false;
                if (visiting)
                    (*visit)(visitKey,
                             {raw, static_cast<std::size_t>(p - raw)});
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    break;
                }
                return fail("expected ',' or '}'");
            }
            if (members)
                mergeDuplicateKeys(*members);
        }
        if (out)
            out->value_ = std::move(members);
        return true;
    }

    const char *p;
    const char *end;
    const JsonValue::MemberVisitor *visit;
    std::string visitKey; ///< The reported member's key (no-tree mode).
    std::string err;
};

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type()) {
      case Type::kNull:
        out += "null";
        return;
      case Type::kBool:
        out += std::get<bool>(value_) ? "true" : "false";
        return;
      case Type::kNumber:
        appendNumber(out, std::get<double>(value_));
        return;
      case Type::kString:
        appendEscaped(out, owned<std::string>(value_));
        return;
      case Type::kArray: {
        const Array &elements = owned<Array>(value_);
        if (elements.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < elements.size(); ++i) {
            if (i)
                out += ',';
            if (indent >= 0)
                appendIndent(out, indent, depth + 1);
            elements[i].dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            appendIndent(out, indent, depth);
        out += ']';
        return;
      }
      case Type::kObject: {
        const Object &members = owned<Object>(value_);
        if (members.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &member : members) {
            if (!first)
                out += ',';
            first = false;
            if (indent >= 0)
                appendIndent(out, indent, depth + 1);
            appendEscaped(out, member.first);
            out += indent >= 0 ? ": " : ":";
            member.second.dumpTo(out, indent, depth + 1);
        }
        if (indent >= 0)
            appendIndent(out, indent, depth);
        out += '}';
        return;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

bool
JsonValue::parse(std::string_view text, JsonValue *out, std::string *error)
{
    return JsonParser(text).parse(out, error);
}

bool
JsonValue::scan(std::string_view text, const MemberVisitor &visit,
                std::string *error)
{
    return JsonParser(text, visit ? &visit : nullptr).parse(nullptr, error);
}

JsonValue
JsonValue::parseOrDie(std::string_view text)
{
    JsonValue out;
    std::string error;
    if (!parse(text, &out, &error)) {
        std::fprintf(stderr, "json parse error: %s\n", error.c_str());
        BH_FATAL("malformed JSON input");
    }
    return out;
}

} // namespace bh
