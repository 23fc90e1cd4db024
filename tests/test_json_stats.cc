/**
 * @file
 * Tests for the JSON layer (stats/json.h): the 16-byte value's copy and
 * move semantics, the number codec (byte-identical to printf's "%lld" /
 * "%.17g", strtod-exact reads on both sides of the exact-integer path,
 * the strict RFC 8259 grammar, the isU64() gate), the no-tree scan()
 * mode's member reports, the parser's bounds on untrusted input (nesting
 * depth, linear-time wide objects), and a seeded mutation test of the
 * decoder that also holds scan() to parse()'s verdicts; histogram
 * percentile edge cases (stats/histogram.h) and histogram JSON
 * round-tripping (stats/json_stats.h).
 */
#include <gtest/gtest.h>

#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

#include "sim/experiment.h"
#include "sim/mixes.h"
#include "sim/result_store.h"
#include "stats/histogram.h"
#include "stats/json.h"
#include "stats/json_stats.h"

namespace bh {
namespace {

static_assert(sizeof(JsonValue) <= 16, "JsonValue must stay 16 bytes");

/** One real sweep record: what the store and the export both carry. */
const JsonValue &
realRecord()
{
    static const JsonValue record = [] {
        ExperimentConfig cfg;
        cfg.mix = makeMix("HHMA", 0);
        cfg.mechanism = MitigationType::kGraphene;
        cfg.nRh = 512;
        cfg.breakHammer = true;
        cfg.instructions = 8000;
        return experimentResultToJson(cfg, runExperiment(cfg));
    }();
    return record;
}

/** A results.jsonl line as the store writes it: envelope + record. */
std::string
storeLine()
{
    JsonValue line = JsonValue::object();
    line.set("v", ResultStore::kSchemaVersion);
    line.set("kind", "experiment");
    line.set("key", *realRecord().find("key"));
    line.set("payload", realRecord());
    return line.dump();
}

/** A small document with every kind of value, nested. */
JsonValue
nestedDocument()
{
    JsonValue doc = JsonValue::object();
    doc.set("name", "mix \"HHMA\"\n\t\x01");
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push(JsonValue());
    arr.push(false);
    arr.push(-2.5e-7);
    JsonValue inner = JsonValue::object();
    inner.set("x", 2.5);
    JsonValue deeper = JsonValue::array();
    deeper.push(JsonValue::array());
    deeper.push(JsonValue::object());
    inner.set("y", std::move(deeper));
    arr.push(std::move(inner));
    doc.set("data", std::move(arr));
    doc.set("ok", true);
    return doc;
}

/** Every number in @p v, depth first. */
void
collectNumbers(const JsonValue &v, std::vector<double> *out)
{
    if (v.isNumber()) {
        out->push_back(v.asDouble());
    } else if (v.isArray()) {
        for (std::size_t i = 0; i < v.size(); ++i)
            collectNumbers(v.at(i), out);
    } else if (v.isObject()) {
        for (const auto &member : v.members())
            collectNumbers(member.second, out);
    }
}

/** The bytes the printf-based encoder wrote for @p v. */
std::string
printfNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Edge values, seeded random values, and a real record's numbers. */
std::vector<double>
numberCorpus()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double two53 = 9007199254740992.0;
    std::vector<double> xs = {
        0.0, -0.0, 0.5, -0.5, 0.1, 1.0 / 3.0, 1e-5, 123.456, 1e21, 1e22,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
        std::nextafter(DBL_MIN, 0.0), DBL_MIN, -DBL_MIN, DBL_MAX,
        -DBL_MAX, DBL_EPSILON, two53 - 1, two53, two53 + 2, -(two53 + 2),
        9.0e15, -9.0e15, std::nextafter(9.0e15, 0.0),
        std::nextafter(9.0e15, inf), -std::nextafter(9.0e15, 0.0),
        8999999999999999.5, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()};
    std::mt19937_64 rng(0x5eed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> exponent(-30, 30);
    std::uniform_int_distribution<long long> integer(-20000000000000000LL,
                                                     20000000000000000LL);
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t bits = rng();
        double raw;
        std::memcpy(&raw, &bits, sizeof(raw));
        xs.push_back(raw);
        xs.push_back(static_cast<double>(integer(rng)));
        xs.push_back(unit(rng) * std::pow(10.0, exponent(rng)));
    }
    collectNumbers(realRecord(), &xs);
    return xs;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

// ------------------------------------------------------------ JsonValue

TEST(JsonTest, DumpAndParseScalars)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(42).dump(), "42");
    EXPECT_EQ(JsonValue(std::uint64_t{1234567890123}).dump(),
              "1234567890123");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");

    JsonValue v;
    ASSERT_TRUE(JsonValue::parse("3.5", &v));
    EXPECT_DOUBLE_EQ(v.asDouble(), 3.5);
    ASSERT_TRUE(JsonValue::parse("  true ", &v));
    EXPECT_TRUE(v.asBool());
    ASSERT_TRUE(JsonValue::parse("\"a\\nb\"", &v));
    EXPECT_EQ(v.asString(), "a\nb");
}

TEST(JsonTest, DoubleRoundTripIsExact)
{
    const double values[] = {0.72237629069954734, 1.0 / 3.0, 1e-300,
                             123456789.123456789, -0.0, 5.4407584830339317};
    for (double x : values) {
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(JsonValue(x).dump(), &parsed));
        EXPECT_EQ(parsed.asDouble(), x);
    }
}

TEST(JsonTest, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("mango", 3);
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");

    obj.set("apple", 9); // replace in place, order unchanged
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonTest, NestedRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", "mix \"HHMA\"\n");
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push(JsonValue());
    arr.push(false);
    JsonValue inner = JsonValue::object();
    inner.set("x", 2.5);
    arr.push(std::move(inner));
    doc.set("data", std::move(arr));

    for (int indent : {-1, 2}) {
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(doc.dump(indent), &parsed));
        EXPECT_TRUE(parsed == doc);
    }
}

TEST(JsonTest, ParseRejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("", &v, &err));
    EXPECT_FALSE(JsonValue::parse("{", &v, &err));
    EXPECT_FALSE(JsonValue::parse("[1,]", &v, &err));
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", &v, &err));
    EXPECT_FALSE(JsonValue::parse("\"unterminated", &v, &err));
    EXPECT_FALSE(JsonValue::parse("tru", &v, &err));
    EXPECT_FALSE(JsonValue::parse("1 2", &v, &err));
    EXPECT_FALSE(err.empty());
}

// ------------------------------------------- layout, copies, moves

TEST(JsonValueTest, CopyIsDeepAndIndependent)
{
    JsonValue original = nestedDocument();
    JsonValue copy = original;
    EXPECT_TRUE(copy == original);
    copy.set("name", "changed");
    copy.set("extra", 1);
    EXPECT_EQ(original.get("name").asString(), "mix \"HHMA\"\n\t\x01");
    EXPECT_EQ(original.find("extra"), nullptr);
    EXPECT_EQ(original.dump(), nestedDocument().dump());

    JsonValue assigned = JsonValue(7);
    assigned = original;
    EXPECT_TRUE(assigned == original);
    assigned.set("ok", false);
    EXPECT_TRUE(original.get("ok").asBool());
}

TEST(JsonValueTest, MoveLeavesTheSourceNull)
{
    JsonValue source = nestedDocument();
    const std::string text = source.dump();
    JsonValue moved(std::move(source));
    EXPECT_TRUE(source.isNull()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.dump(), text);

    JsonValue target = JsonValue("old");
    target = std::move(moved);
    EXPECT_TRUE(moved.isNull()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(target.dump(), text);
}

TEST(JsonValueTest, SelfAssignmentKeepsTheValue)
{
    JsonValue doc = nestedDocument();
    const std::string text = doc.dump();
    JsonValue &alias = doc;
    doc = alias;
    EXPECT_EQ(doc.dump(), text);
    doc = std::move(alias);
    EXPECT_EQ(doc.dump(), text);
}

TEST(JsonValueTest, AssignFromOwnDescendant)
{
    // The copy must be complete before the old value (which owns the
    // source) is released.
    JsonValue doc = nestedDocument();
    doc = doc.get("data").at(4);
    EXPECT_EQ(doc.dump(), "{\"x\":2.5,\"y\":[[],{}]}");
}

// ------------------------------------------------------- number codec

TEST(JsonNumberTest, DumpMatchesPrintfByteForByte)
{
    for (double x : numberCorpus())
        ASSERT_EQ(JsonValue(x).dump(), printfNumber(x)) << bitsOf(x);
}

TEST(JsonNumberTest, ParseOfDumpIsBitIdentical)
{
    for (double x : numberCorpus()) {
        if (!std::isfinite(x))
            continue;
        const std::string text = JsonValue(x).dump();
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(text, &parsed)) << text;
        // -0 prints as the integer 0, as "%lld" always printed it.
        const double expected = x == 0.0 ? 0.0 : x;
        EXPECT_EQ(bitsOf(parsed.asDouble()), bitsOf(expected)) << text;
        EXPECT_EQ(bitsOf(parsed.asDouble()),
                  bitsOf(std::strtod(text.c_str(), nullptr)))
            << text;
    }
}

TEST(JsonNumberTest, ParseRoundsLikeStrtod)
{
    const char *texts[] = {
        "0.1000000000000000055511151231257827021181583404541015625",
        "9007199254740993", // halfway: ties to even
        "1.00000000000000011102230246251565404236316680908203125",
        "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-320",
        "123456789012345678901234567890", "-0", "0e0", "1E-5", "1e5",
        "1e400", "-1e400", "1e-400", "-1e-400",
        "0.00000000000000000000000000000000000000000000000000001e-280",
        "17976931348623157e292", "17976931348623159e292"};
    std::vector<std::string> corpus(std::begin(texts), std::end(texts));
    // Plain integers of up to 15 digits take the exact-integer path;
    // longer ones (and every fraction or exponent) go through from_chars.
    // Every digit count on both sides of that boundary must match strtod.
    const std::string digits = "9876543210987654";
    for (std::size_t n = 1; n <= digits.size(); ++n) {
        std::string power(n, '0');
        power[0] = '1';
        corpus.push_back(power);
        corpus.push_back(digits.substr(0, n));
        corpus.push_back(std::string("-").append(digits, 0, n));
    }
    for (const char *text : {"-0", "0", "999999999999999",
                             "-999999999999999", "1000000000000000",
                             "9007199254740993", "-9007199254740993"})
        corpus.push_back(text);
    for (const std::string &text : corpus) {
        JsonValue parsed;
        ASSERT_TRUE(JsonValue::parse(text, &parsed)) << text;
        EXPECT_EQ(bitsOf(parsed.asDouble()),
                  bitsOf(std::strtod(text.c_str(), nullptr)))
            << text;
        EXPECT_TRUE(JsonValue::scan(text)) << text;
    }
}

TEST(JsonNumberTest, StrictGrammar)
{
    JsonValue v;
    for (const char *bad :
         {"inf", "-inf", "nan", "NaN", "Infinity", "+1", "0x10", ".5", "1.",
          "01", "-01", "-", "1e", "1e+", "1E-", "--1", "1.e5", "0.e1",
          "[01]", "[1.]", "[-]", "{\"a\":+1}", " .5 "}) {
        std::string err;
        EXPECT_FALSE(JsonValue::parse(bad, &v, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    const std::pair<const char *, double> good[] = {
        {"-0", -0.0}, {"0", 0.0}, {"0.5", 0.5}, {"1e5", 1e5},
        {"1E-5", 1e-5}, {"-12.25e+2", -1225.0}, {"10", 10.0},
        {" 7 ", 7.0}};
    for (const auto &[text, value] : good) {
        ASSERT_TRUE(JsonValue::parse(text, &v)) << text;
        EXPECT_EQ(bitsOf(v.asDouble()), bitsOf(value)) << text;
    }
}

TEST(JsonNumberTest, U64GateAcceptsOnlyExactCounts)
{
    JsonValue v;
    for (const char *good : {"0", "-0", "1", "4096", "9007199254740993",
                             "18446744073709549568"}) {
        ASSERT_TRUE(JsonValue::parse(good, &v)) << good;
        EXPECT_TRUE(v.isU64()) << good;
    }
    EXPECT_EQ(JsonValue(std::uint64_t{18446744073709549568ull}).asU64(),
              18446744073709549568ull);
    for (const char *bad : {"-1", "-1e-300", "0.5", "1e300", "1e400",
                            "18446744073709551616", "\"1\"", "true",
                            "null", "[1]"}) {
        ASSERT_TRUE(JsonValue::parse(bad, &v)) << bad;
        EXPECT_FALSE(v.isU64()) << bad;
    }
}

// ------------------------------------------------------- no-tree scan

TEST(JsonScanTest, ReportsTopLevelMembersAsRawBytes)
{
    // Any member order and whitespace parse() accepts, an escaped key,
    // and a duplicate: every member is reported in order, its value's
    // bytes exactly as written; nested members are not reported.
    const std::string text =
        " {\t\"b\" : [1, {\"x\":2}] ,\"\\u0061\":\"s\\n\", \"b\":-0 ,"
        "\"o\":{\"k\" :null}}\r\n";
    std::vector<std::pair<std::string, std::string>> seen;
    auto record = [&seen](const std::string &key, std::string_view raw) {
        seen.emplace_back(key, std::string(raw));
    };
    ASSERT_TRUE(JsonValue::scan(text, record));
    const std::vector<std::pair<std::string, std::string>> expected = {
        {"b", "[1, {\"x\":2}]"},
        {"a", "\"s\\n\""},
        {"b", "-0"},
        {"o", "{\"k\" :null}"}};
    EXPECT_EQ(seen, expected);

    // Other documents report no members.
    for (const char *doc :
         {"[{\"a\":1}]", "\"{}\"", " -12.5e3 ", "false", "null", "{}"}) {
        seen.clear();
        ASSERT_TRUE(JsonValue::scan(doc, record)) << doc;
        EXPECT_TRUE(seen.empty()) << doc;
    }
}

// ----------------------------------------- bounds on untrusted input

std::string
nestedArrays(int depth)
{
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
}

std::string
nestedObjects(int depth)
{
    std::string text;
    for (int i = 0; i < depth; ++i)
        text += "{\"k\":";
    text += "1";
    text.append(static_cast<std::size_t>(depth), '}');
    return text;
}

TEST(JsonParseLimitsTest, MillionOpenBracketsFailCleanly)
{
    // Unbounded recursion overflowed the stack on this input.
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse(std::string(1000000, '['), &v, &err));
    EXPECT_EQ(err, "nesting too deep");
    EXPECT_FALSE(JsonValue::parse(std::string(1000000, '{'), &v, &err));
}

TEST(JsonParseLimitsTest, NestingAtTheCapParses)
{
    const int cap = JsonValue::kMaxParseDepth;
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(nestedArrays(cap), &v));
    EXPECT_EQ(v.dump(), nestedArrays(cap));
    ASSERT_TRUE(JsonValue::parse(nestedObjects(cap), &v));
    EXPECT_EQ(v.dump(), nestedObjects(cap));
}

TEST(JsonParseLimitsTest, NestingPastTheCapFails)
{
    const int cap = JsonValue::kMaxParseDepth;
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse(nestedArrays(cap + 1), &v, &err));
    EXPECT_EQ(err, "nesting too deep");
    err.clear();
    EXPECT_FALSE(JsonValue::parse(nestedObjects(cap + 1), &v, &err));
    EXPECT_EQ(err, "nesting too deep");
}

TEST(JsonParseLimitsTest, WideObjectParsesInLinearTime)
{
    // Inserting each member through set() scanned every earlier key: a
    // 40,000-key object took seconds and this one would take minutes.
    // The same tokens as a flat array are the linear-time yardstick, so
    // the bound also holds in unoptimized and sanitizer builds.
    constexpr int kKeys = 200000;
    std::string object = "{";
    std::string array = "[";
    for (int i = 0; i < kKeys; ++i) {
        std::string key = i ? ",\"k" : "\"k";
        key += std::to_string(i);
        key += '"';
        object += key + ":" + std::to_string(i);
        array += key + "," + std::to_string(i);
    }
    object += "}";
    array += "]";
    auto secondsToParse = [](const std::string &text, JsonValue *out) {
        auto start = std::chrono::steady_clock::now();
        EXPECT_TRUE(JsonValue::parse(text, out));
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    JsonValue v;
    const double array_s = secondsToParse(array, &v);
    const double object_s = secondsToParse(object, &v);
    EXPECT_LT(object_s, 10.0 * array_s + 0.05);
#ifdef __OPTIMIZE__
    EXPECT_LT(object_s, 1.0);
#endif
    ASSERT_EQ(v.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(v.members().back().first, "k199999");
}

TEST(JsonParseLimitsTest, DuplicateKeysKeepLastValueAtFirstPosition)
{
    // Small objects (pairwise key checks) and wide ones (indexed keys)
    // must agree with repeated set() calls.
    for (int keys : {3, 40}) {
        std::string text = "{";
        JsonValue expected = JsonValue::object();
        for (int i = 0; i < keys; ++i) {
            std::string key = "k";
            key += std::to_string(i);
            text += "\"" + key + "\":" + std::to_string(i) + ",";
            expected.set(key, i);
        }
        text += "\"k1\":\"again\",\"k0\":[],\"new\":null,\"k1\":\"last\"}";
        expected.set("k1", "again");
        expected.set("k0", JsonValue::array());
        expected.set("new", JsonValue());
        expected.set("k1", "last");
        JsonValue v;
        ASSERT_TRUE(JsonValue::parse(text, &v)) << keys;
        EXPECT_EQ(v.dump(), expected.dump()) << keys;
    }
}

// -------------------------------------------- decoder mutation test

/**
 * Seeded mutations of valid documents: byte flips, structural-byte
 * overwrites, truncations, bracket-run insertions, balanced wrapping
 * past the depth cap, and splices across seeds. parse() must return on
 * every case, scan() must give the same verdict and error, and every
 * accepted document must reach a fixed point under dump -> parse ->
 * dump.
 */
TEST(JsonMutationTest, MutatedDocumentsParseOrFailAndReachAFixedPoint)
{
    const std::vector<std::string> seeds = {
        realRecord().dump(), storeLine(), nestedDocument().dump(),
        nestedDocument().dump(2)};
    const char kStructural[] = "[]{}:,\"\\-+.eE019tfnu ";
    const char *kRunUnits[] = {"[", "{", "{\"k\":", "[{\"k\":"};
    std::mt19937_64 rng(0xb4eac4a);
    auto below = [&rng](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };

    constexpr int kCases = 20000;
    int accepted = 0;
    for (int c = 0; c < kCases; ++c) {
        std::string doc = seeds[below(seeds.size())];
        const std::size_t edits = 1 + below(3);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = below(doc.size() + 1);
            switch (below(6)) {
              case 0: // bit flip
                if (!doc.empty())
                    doc[below(doc.size())] ^=
                        static_cast<char>(1u << below(8));
                break;
              case 1: // structural byte overwrite
                if (!doc.empty())
                    doc[below(doc.size())] =
                        kStructural[below(sizeof(kStructural) - 1)];
                break;
              case 2: // truncation
                doc.resize(pos);
                break;
              case 3: { // bracket run
                const char *unit = kRunUnits[below(4)];
                std::string run;
                for (std::size_t i = 1 + below(600); i > 0; --i)
                    run += unit;
                doc.insert(pos, run);
                break;
              }
              case 4: { // balanced wrap, sometimes past the cap
                const std::size_t depth = 1 + below(300);
                doc = std::string(depth, '[') + doc +
                      std::string(depth, ']');
                break;
              }
              default: { // splice from any seed
                const std::string &donor = seeds[below(seeds.size())];
                const std::size_t from = below(donor.size());
                const std::size_t len = below(donor.size() - from + 1);
                const std::size_t cut = below(doc.size() - pos + 1);
                doc.replace(pos, cut, donor, from, len);
                break;
              }
            }
        }
        // The no-tree mode must agree with parse() on every mutant: the
        // same verdict, the same error, and object members whose raw
        // bytes rebuild the parsed object.
        JsonValue v;
        std::string parse_error;
        const bool parsed = JsonValue::parse(doc, &v, &parse_error);
        JsonValue rebuilt = JsonValue::object();
        bool members_ok = true;
        std::string scan_error;
        const bool scanned = JsonValue::scan(
            doc,
            [&](const std::string &key, std::string_view raw) {
                JsonValue member;
                members_ok = members_ok && JsonValue::parse(raw, &member);
                rebuilt.set(key, std::move(member));
            },
            &scan_error);
        ASSERT_EQ(scanned, parsed) << doc;
        ASSERT_EQ(scan_error, parse_error) << doc;
        if (!parsed)
            continue;
        ++accepted;
        ASSERT_TRUE(members_ok) << doc;
        if (v.isObject()) {
            ASSERT_TRUE(rebuilt == v) << doc;
        }
        const std::string once = v.dump();
        JsonValue again;
        ASSERT_TRUE(JsonValue::parse(once, &again)) << once;
        ASSERT_EQ(again.dump(), once);
    }
    // Both outcomes must be well exercised for the test to mean much.
    EXPECT_GT(accepted, kCases / 20);
    EXPECT_LT(accepted, kCases - kCases / 20);
}

// -------------------------------------------- Histogram edge cases

TEST(HistogramTest, EmptyHistogramPercentiles)
{
    Histogram h(2.0, 16);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(h.percentile(100), 0.0);
}

TEST(HistogramTest, SingleSamplePercentiles)
{
    Histogram h(2.0, 16);
    h.record(5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), 5.0);
    // p0 is the histogram's lower bound on the minimum: the lower edge
    // of the sample's bin [4, 6) — not a flat 0.
    EXPECT_EQ(h.percentile(0), 4.0);
    EXPECT_EQ(h.percentile(100), 5.0);     // p100 is the observed max
    // Any mid percentile interpolates inside the bin but is capped at
    // the observed max: a lone sample's p99 must not exceed the sample.
    EXPECT_GE(h.percentile(50), 4.0);
    EXPECT_LE(h.percentile(50), 5.0);
    EXPECT_EQ(h.percentile(99), 5.0);
}

TEST(HistogramTest, InterpolationNeverExceedsObservedMax)
{
    // 10 samples at 1.0 in bin [1, 2): the raw interpolation formula for
    // p99 lands at 1.99 * width, past every recorded value. The observed
    // max must cap it.
    Histogram h(1.0, 16);
    for (int i = 0; i < 10; ++i)
        h.record(1.0);
    EXPECT_EQ(h.percentile(99), 1.0);
    EXPECT_EQ(h.percentile(100), 1.0);
    // Monotone through the cap.
    double prev = 0.0;
    for (double p = 0; p <= 100; p += 5) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev);
        EXPECT_LE(v, h.max());
        prev = v;
    }
}

TEST(HistogramTest, P0ReportsFirstOccupiedBin)
{
    Histogram h(10.0, 16);
    h.record(57.0); // bin [50, 60)
    h.record(99.0); // bin [90, 100)
    EXPECT_EQ(h.percentile(0), 50.0);
    EXPECT_EQ(h.percentile(-1), 50.0); // clamped below
}

TEST(HistogramTest, OverflowOnlySamplesReportMaxEverywhere)
{
    Histogram h(1.0, 4); // regular bins cover [0, 4)
    h.record(1000.0);
    // Mid/high percentiles of an overflow-only population report the
    // observed max (the overflow bin has no upper edge to interpolate
    // toward); p0 reports the overflow bin's lower edge — the only
    // lower bound the histogram still knows.
    EXPECT_EQ(h.percentile(0), 4.0);
    EXPECT_EQ(h.percentile(50), 1000.0);
    EXPECT_EQ(h.percentile(100), 1000.0);
}

TEST(HistogramTest, P0AndP100OnManySamples)
{
    Histogram h(1.0, 64);
    for (int i = 0; i < 100; ++i)
        h.record(static_cast<double>(i % 10));
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.percentile(-5), 0.0);   // clamped below
    EXPECT_EQ(h.percentile(100), 9.0);
    EXPECT_EQ(h.percentile(150), 9.0);  // clamped above
    EXPECT_LE(h.percentile(50), h.percentile(90));
}

TEST(HistogramTest, OverflowBinReportsObservedMax)
{
    Histogram h(1.0, 4); // regular bins cover [0, 4)
    h.record(1000.0);
    h.record(2000.0);
    EXPECT_EQ(h.max(), 2000.0);
    EXPECT_EQ(h.percentile(99), 2000.0);
}

TEST(HistogramTest, NegativeSamplesClampToZero)
{
    Histogram h(1.0, 8);
    h.record(-3.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.rawBins()[0], 1u);
}

// ------------------------------------------------ JSON round-tripping

TEST(JsonStatsTest, HistogramRoundTripsThroughJson)
{
    Histogram h(2.0, 64);
    for (int i = 0; i < 500; ++i)
        h.record(static_cast<double>((i * 7) % 130)); // incl. overflow
    h.record(1e6); // deep overflow

    std::string text = histogramToJson(h).dump();
    Histogram back = histogramFromJson(JsonValue::parseOrDie(text));

    EXPECT_TRUE(back == h);
    EXPECT_EQ(back.count(), h.count());
    EXPECT_EQ(back.mean(), h.mean());
    EXPECT_EQ(back.max(), h.max());
    for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(back.percentile(p), h.percentile(p));
}

TEST(JsonStatsTest, EmptyHistogramRoundTrips)
{
    Histogram h(0.5, 8);
    Histogram back =
        histogramFromJson(JsonValue::parseOrDie(histogramToJson(h).dump()));
    EXPECT_TRUE(back == h);
    EXPECT_EQ(back.count(), 0u);
}

TEST(JsonStatsTest, SparseBinsEncodeCompactly)
{
    Histogram h(1.0, 4096);
    h.record(3.0);
    JsonValue v = histogramToJson(h);
    EXPECT_EQ(v.get("bins").size(), 1u); // one populated bin, not 4097
}

} // namespace
} // namespace bh
