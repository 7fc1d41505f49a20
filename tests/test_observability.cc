/**
 * @file
 * Tests of the observability layer: histogram stats, the stat
 * registry (merge/reset/dump round-trips), the Chrome-tracing span
 * tracer, the strict environment parsers, the ThreadPool reentrancy
 * guard, and the determinism contract -- deterministic stat dumps
 * leave out host wall-clock stats.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "rime/api.hh"
#include "rime/ops.hh"
#include "rimehw/chip.hh"

using namespace rime;

namespace
{

/**
 * Minimal recursive-descent JSON validator: enough of RFC 8259 to
 * prove that the stat and trace dumps parse, without a JSON library
 * dependency.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(std::string text) : text_(std::move(text)) {}

    bool
    valid()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!eof() &&
               std::isspace(static_cast<unsigned char>(peek()))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (eof() || peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    parseValue()
    {
        if (eof())
            return false;
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
            return parseLiteral("true");
          case 'f':
            return parseLiteral("false");
          case 'n':
            return parseLiteral("null");
          default:
            return parseNumber();
        }
    }

    bool
    parseLiteral(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseObject()
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            if (!parseString())
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseArray()
    {
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseString()
    {
        if (!consume('"'))
            return false;
        while (!eof()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (eof())
                    return false;
                ++pos_;
            }
        }
        return false;
    }

    bool
    parseNumber()
    {
        bool digits = false;
        const auto digitRun = [&] {
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek()))) {
                ++pos_;
                digits = true;
            }
        };
        if (!eof() && peek() == '-')
            ++pos_;
        digitRun();
        if (!digits)
            return false;
        if (!eof() && peek() == '.') {
            ++pos_;
            digits = false;
            digitRun();
            if (!digits)
                return false;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '-' || peek() == '+'))
                ++pos_;
            digits = false;
            digitRun();
            if (!digits)
                return false;
        }
        return true;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * The histogram storage StatHistogram had before its flat bucket
 * array: buckets in a std::map, the bucket of a finite value computed
 * with std::ilogb.  The dump is StatGroup::dump's text for a group
 * holding this one histogram.
 */
struct MapHistogram
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::map<int, std::uint64_t> buckets;

    static int
    bucketOf(double value)
    {
        return value >= 1.0 ? std::ilogb(value) + 1 : 0;
    }

    void
    record(double value, std::uint64_t weight)
    {
        if (weight == 0)
            return;
        if (count == 0) {
            min = value;
            max = value;
        } else {
            min = std::min(min, value);
            max = std::max(max, value);
        }
        count += weight;
        sum += value * static_cast<double>(weight);
        buckets[bucketOf(value)] += weight;
    }

    void
    merge(const MapHistogram &other)
    {
        if (other.count == 0)
            return;
        if (count == 0) {
            min = other.min;
            max = other.max;
        } else {
            min = std::min(min, other.min);
            max = std::max(max, other.max);
        }
        count += other.count;
        sum += other.sum;
        for (const auto &kv : other.buckets)
            buckets[kv.first] += kv.second;
    }

    void
    reset()
    {
        *this = MapHistogram{};
    }

    std::string
    dump(const std::string &path) const
    {
        std::ostringstream os;
        os << std::setprecision(12);
        os << path << ".count " << count << "\n";
        if (count == 0)
            return os.str();
        os << path << ".mean " << sum / static_cast<double>(count) << "\n"
           << path << ".min " << min << "\n"
           << path << ".max " << max << "\n";
        for (const auto &kv : buckets) {
            const double lo = kv.first <= 0
                ? 0.0 : std::ldexp(1.0, kv.first - 1);
            const double hi = kv.first <= 0
                ? 1.0 : std::ldexp(1.0, kv.first);
            os << path << ".bucket[" << lo << "," << hi << ") "
               << kv.second << "\n";
        }
        return os.str();
    }
};

std::string
dumpOf(const StatGroup &group)
{
    std::ostringstream os;
    group.dump(os);
    return os.str();
}

/**
 * A random histogram sample no larger than 2^max_exp: zero, a value
 * below 1, a power of two, a power of two's neighbour one ulp away,
 * or a uniform value.
 */
double
histogramSample(Rng &rng, int max_exp)
{
    const int e = static_cast<int>(rng() % (max_exp + 1));
    const double p = std::ldexp(1.0, e);
    switch (rng() % 6) {
      case 0:
        return 0.0;
      case 1:
        return rng.uniform();
      case 2:
        return p;
      case 3:
        return std::nextafter(p, 0.0);
      case 4:
        return e == max_exp ? p : std::nextafter(p, 2 * p);
      default:
        return p * (1.0 + rng.uniform());
    }
}

/** A chip holding `n` random 32-bit values (a small geometry). */
std::unique_ptr<rimehw::RimeChip>
filledChip(std::uint64_t n)
{
    rimehw::RimeGeometry g;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    auto chip = std::make_unique<rimehw::RimeChip>(g);
    chip->configure(32, KeyMode::UnsignedFixed);
    Rng rng(7);
    for (std::uint64_t i = 0; i < n; ++i)
        chip->writeValue(i, rng() & 0xFFFFFFFF);
    return chip;
}

/** The deterministic JSON dump of one chip's stats. */
std::string
chipDumpJson(rimehw::RimeChip &chip)
{
    StatRegistry reg;
    reg.attach("chip", chip.stats());
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

/** Number of non-overlapping occurrences of `needle` in `hay`. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (auto pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(Histogram, EmptyIsAllZero)
{
    StatHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_TRUE(h.buckets().empty());
    h.reset(); // reset of an empty histogram is a no-op
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, BucketEdges)
{
    EXPECT_EQ(StatHistogram::bucketOf(0.0), 0);
    EXPECT_EQ(StatHistogram::bucketOf(0.99), 0);
    EXPECT_EQ(StatHistogram::bucketOf(1.0), 1);
    EXPECT_EQ(StatHistogram::bucketOf(1.99), 1);
    EXPECT_EQ(StatHistogram::bucketOf(2.0), 2);
    EXPECT_EQ(StatHistogram::bucketOf(3.0), 2);
    EXPECT_EQ(StatHistogram::bucketOf(4.0), 3);
    EXPECT_EQ(StatHistogram::bucketOf(1024.0), 11);

    EXPECT_EQ(StatHistogram::bucketBounds(0),
              (std::pair<double, double>{0.0, 1.0}));
    EXPECT_EQ(StatHistogram::bucketBounds(1),
              (std::pair<double, double>{1.0, 2.0}));
    EXPECT_EQ(StatHistogram::bucketBounds(3),
              (std::pair<double, double>{4.0, 8.0}));
}

TEST(Histogram, SingleBucket)
{
    StatHistogram h;
    h.record(1.5);
    h.record(1.5);
    h.record(1.5);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), 1.5);
    EXPECT_DOUBLE_EQ(h.max(), 1.5);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
    ASSERT_EQ(h.buckets().size(), 1u);
    EXPECT_EQ(h.buckets().at(1), 3u);
}

TEST(Histogram, WeightMergeAndReset)
{
    StatHistogram a;
    a.record(2.0, 4); // bucket 2, weight 4
    a.record(0.25);   // bucket 0
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.sum(), 8.25);
    a.record(1.0, 0); // zero weight: dropped entirely
    EXPECT_EQ(a.count(), 5u);

    StatHistogram b;
    b.record(100.0);
    b.merge(a);
    EXPECT_EQ(b.count(), 6u);
    EXPECT_DOUBLE_EQ(b.min(), 0.25);
    EXPECT_DOUBLE_EQ(b.max(), 100.0);
    EXPECT_EQ(b.buckets().at(2), 4u);

    b.reset();
    EXPECT_EQ(b.count(), 0u);
    EXPECT_TRUE(b.buckets().empty());
}

TEST(Histogram, GroupMergeAndResetCarryHistograms)
{
    StatGroup a("a");
    StatGroup b("b");
    a.hist("lat").record(4.0);
    b.hist("lat").record(16.0);
    b.inc("n", 2);
    a.merge(b);
    EXPECT_EQ(a.hist("lat").count(), 2u);
    EXPECT_DOUBLE_EQ(a.hist("lat").max(), 16.0);
    EXPECT_TRUE(a.hasHist("lat"));
    EXPECT_FALSE(a.hasHist("other"));
    a.reset();
    EXPECT_EQ(a.hist("lat").count(), 0u);
    EXPECT_DOUBLE_EQ(a.get("n"), 0.0);
}

TEST(Histogram, NonFiniteAndHugeSamplesHaveDefinedBuckets)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(StatHistogram::bucketOf(inf), StatHistogram::kNonFiniteBucket);
    EXPECT_EQ(StatHistogram::bucketOf(-inf),
              StatHistogram::kNonFiniteBucket);
    EXPECT_EQ(StatHistogram::bucketOf(nan), StatHistogram::kNonFiniteBucket);
    EXPECT_EQ(StatHistogram::bucketOf(0.0), 0);
    EXPECT_EQ(StatHistogram::bucketOf(-1.0), 0);
    // Finite values keep their ilogb bucket, however large.
    EXPECT_EQ(StatHistogram::bucketOf(1e300), std::ilogb(1e300) + 1);
    EXPECT_EQ(StatHistogram::bucketOf(
                  std::numeric_limits<double>::max()), 1024);
    EXPECT_EQ(StatHistogram::bucketBounds(StatHistogram::kNonFiniteBucket),
              (std::pair<double, double>{inf, inf}));

    StatGroup g("g");
    StatHistogram &h = g.hist("h");
    h.record(inf);
    h.record(1e300);
    h.record(nan);
    h.record(0.0);
    h.record(inf, 2);
    EXPECT_EQ(h.count(), 6u);
    const auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets.at(0), 1u);
    EXPECT_EQ(buckets.at(std::ilogb(1e300) + 1), 1u);
    EXPECT_EQ(buckets.at(StatHistogram::kNonFiniteBucket), 4u);
    const std::string dump = dumpOf(g);
    EXPECT_NE(dump.find("g.h.bucket[0,1) 1\n"), std::string::npos) << dump;
    EXPECT_NE(dump.find("g.h.bucket[inf,inf) 4\n"), std::string::npos)
        << dump;

    // Merging histograms whose top buckets are the non-finite one.
    StatHistogram m;
    m.record(2.0);
    m.merge(h);
    EXPECT_EQ(m.buckets().at(StatHistogram::kNonFiniteBucket), 4u);
    EXPECT_EQ(m.buckets().at(2), 1u);
}

TEST(Histogram, FlatBucketsMatchMapReference)
{
    Rng rng(2024);
    for (int round = 0; round < 24; ++round) {
        // Different highest buckets: `a` reaches 2^60, `b` stays low.
        const int a_exp = 60;
        const int b_exp = static_cast<int>(rng() % 12);
        StatGroup ga("g");
        StatGroup gb("g");
        MapHistogram ra;
        MapHistogram rb;
        const auto fill = [&](StatGroup &g, MapHistogram &r, int max_exp,
                              int n) {
            for (int i = 0; i < n; ++i) {
                const double v = histogramSample(rng, max_exp);
                const std::uint64_t w = rng() % 4; // weight 0 included
                g.hist("h").record(v, w);
                r.record(v, w);
            }
        };
        fill(ga, ra, a_exp, 1 + static_cast<int>(rng() % 300));
        fill(gb, rb, b_exp, static_cast<int>(rng() % 40));
        ASSERT_EQ(dumpOf(ga), ra.dump("g.h")) << "round " << round;
        ASSERT_EQ(dumpOf(gb), rb.dump("g.h")) << "round " << round;

        // Merge in both directions: into a longer bucket array, and
        // into a shorter one that must grow.
        StatGroup gc("g");
        MapHistogram rc;
        gc.hist("h").merge(gb.hist("h"));
        rc.merge(rb);
        gc.hist("h").merge(ga.hist("h"));
        rc.merge(ra);
        ga.hist("h").merge(gb.hist("h"));
        ra.merge(rb);
        ASSERT_EQ(dumpOf(ga), ra.dump("g.h")) << "round " << round;
        ASSERT_EQ(dumpOf(gc), rc.dump("g.h")) << "round " << round;

        // Reset, then re-record a smaller range than before.
        ga.reset();
        ra.reset();
        ASSERT_EQ(dumpOf(ga), ra.dump("g.h"));
        ASSERT_TRUE(ga.hist("h").buckets().empty());
        fill(ga, ra, b_exp, static_cast<int>(rng() % 50));
        ASSERT_EQ(dumpOf(ga), ra.dump("g.h")) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Stat registry
// ---------------------------------------------------------------------

TEST(Registry, AttachedShadowsOwnedAndDetach)
{
    StatRegistry reg;
    reg.group("chip").inc("x", 1);
    EXPECT_TRUE(reg.has("chip"));

    StatGroup live("chip");
    live.inc("x", 10);
    reg.attach("chip", live);

    std::ostringstream os;
    reg.dumpText(os);
    // The attached (live) group shadows the owned accumulator.
    EXPECT_EQ(os.str(), "chip.x 10\n");

    reg.detach("chip");
    std::ostringstream os2;
    reg.dumpText(os2);
    EXPECT_EQ(os2.str(), "chip.x 1\n");
}

TEST(Registry, MergeGroupAndMergeRegistry)
{
    StatRegistry a;
    StatGroup g;
    g.inc("scans", 3);
    g.hist("lat").record(8.0);
    a.mergeGroup("chip.0", g);
    a.mergeGroup("chip.0", g);
    EXPECT_DOUBLE_EQ(a.group("chip.0").get("scans"), 6.0);
    EXPECT_EQ(a.group("chip.0").hist("lat").count(), 2u);

    StatRegistry b;
    b.mergeRegistry(a);
    b.mergeRegistry(a);
    EXPECT_DOUBLE_EQ(b.group("chip.0").get("scans"), 12.0);
    EXPECT_THROW(b.mergeRegistry(b), FatalError);

    b.resetAll();
    EXPECT_DOUBLE_EQ(b.group("chip.0").get("scans"), 0.0);
    EXPECT_EQ(b.group("chip.0").hist("lat").count(), 0u);
}

TEST(Registry, JsonDumpParsesAndNestsPaths)
{
    StatRegistry reg;
    reg.group("chip.0").inc("scans", 7);
    reg.group("chip.1").inc("scans", 9);
    reg.group("driver").inc("allocCalls", 2);
    reg.group("driver").hist("allocPages").record(3.0);

    std::ostringstream os;
    reg.dumpJson(os);
    const std::string json = os.str();

    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    // Dotted paths become nested objects with reserved payload keys.
    EXPECT_NE(json.find("\"chip\""), std::string::npos);
    EXPECT_NE(json.find("\"0\""), std::string::npos);
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
    EXPECT_NE(json.find("\"hists\""), std::string::npos);
    EXPECT_NE(json.find("\"scans\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"scans\": 9"), std::string::npos);
    EXPECT_NE(json.find("\"allocPages\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Registry, JsonExcludesWallClockByDefault)
{
    StatRegistry reg;
    reg.group("chip").inc("scans", 1);
    reg.group("chip").inc("scanWallNs", 12345);

    std::ostringstream det;
    reg.dumpJson(det);
    EXPECT_EQ(det.str().find("scanWallNs"), std::string::npos);
    EXPECT_NE(det.str().find("\"scans\""), std::string::npos);

    std::ostringstream full;
    reg.dumpJson(full, /*include_wall_clock=*/true);
    EXPECT_NE(full.str().find("scanWallNs"), std::string::npos);
    EXPECT_TRUE(JsonValidator(full.str()).valid());

    EXPECT_TRUE(isWallClockStat("scanWallNs"));
    EXPECT_FALSE(isWallClockStat("scanSteps"));
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(Trace, FileIsValidChromeTracingJson)
{
    const std::string path = "test_observability_trace.json";
    {
        Tracer tracer(path);
        ASSERT_TRUE(tracer.enabled());
        {
            TraceSpan span(tracer, "chip", "scan");
            span.arg("steps", std::uint64_t{32});
            span.arg("found", true);
            span.arg("mode", "min");
            span.arg("skew", 0.5);
        }
        tracer.instant("fault", "rowRemap",
                       traceArgs({{"unit", 3}, {"row", 17}}));
        tracer.counter("driver", "allocatedBytes", 4096.0);
        EXPECT_EQ(tracer.eventCount(), 3u);
    } // destructor flushes

    const std::string json = readFile(path);
    ASSERT_FALSE(json.empty());
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"steps\": 32"), std::string::npos);
    EXPECT_NE(json.find("\"unit\": 3"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Trace, DisabledTracerCollectsNothing)
{
    Tracer tracer("");
    EXPECT_FALSE(tracer.enabled());
    {
        TraceSpan span(tracer, "chip", "scan");
        span.arg("steps", std::uint64_t{8});
        span.arg("skew", 0.5);
        span.arg("found", true);
        span.arg("mode", "min");
        span.arg("status", 3u);
    }
    tracer.instant("cat", "evt");
    tracer.counter("cat", "ctr", 1.0);
    EXPECT_EQ(tracer.eventCount(), 0u);
}

TEST(Trace, ChipExtractSpansKeepTheirArgs)
{
    // RimeChip traces through Tracer::global(), which reads RIME_TRACE
    // once per process.  The "threadsafe" death-test style runs the
    // statement in a freshly executed copy of this binary, so the
    // global tracer there is configured after the setenv below.
    const std::string path = "test_observability_chip_trace.json";
    const std::uint64_t n = 2048;
    std::remove(path.c_str());
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("RIME_TRACE", path.c_str(), 1);
            auto chip = filledChip(n);
            chip->initRange(0, n);
            chip->extract(0, n, false);
            std::exit(0); // the global tracer flushes at exit
        },
        ::testing::ExitedWithCode(0), "");
    ::testing::FLAGS_gtest_death_test_style = style;

    auto chip = filledChip(n);
    chip->initRange(0, n);
    const rimehw::ExtractResult r = chip->extract(0, n, false);
    ASSERT_TRUE(r.found);
    const std::uint64_t commits =
        chip->stats().hist("scanSurvivors").count();

    const std::string json = readFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"name\": \"initRange\", \"cat\": \"chip\""),
              std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"begin\": 0, \"end\": 2048}"),
              std::string::npos) << json;
    // One scan event carrying every arg, one probe per step, one
    // commit per excluding step.
    EXPECT_EQ(countOf(json, "\"name\": \"scan\", \"cat\": \"chip\""),
              1u);
    EXPECT_NE(json.find("\"args\": {\"begin\": 0, \"end\": 2048, "
                        "\"findMax\": false, \"found\": true, "
                        "\"steps\": " + std::to_string(r.steps) +
                        ", \"status\": 0}"),
              std::string::npos) << json;
    EXPECT_EQ(countOf(json, "\"name\": \"probe\""), r.steps);
    EXPECT_EQ(countOf(json, "\"args\": {\"step\": "), r.steps + commits);
    EXPECT_EQ(countOf(json, ", \"searchBit\": "), r.steps);
    EXPECT_EQ(countOf(json, ", \"anyMatch\": "), r.steps);
    EXPECT_EQ(countOf(json, ", \"anyMismatch\": "), r.steps);
    ASSERT_GT(commits, 0u);
    EXPECT_EQ(countOf(json, "\"name\": \"commit\""), commits);
    EXPECT_EQ(countOf(json, ", \"survivors\": "), commits);
    EXPECT_NE(json.find(", \"survivors\": 1}"), std::string::npos) << json;
}

// ---------------------------------------------------------------------
// Strict env parsing
// ---------------------------------------------------------------------

TEST(Env, StringDoubleAndU64)
{
    unsetenv("RIME_TEST_KNOB");
    EXPECT_FALSE(envString("RIME_TEST_KNOB").has_value());
    EXPECT_DOUBLE_EQ(envDouble("RIME_TEST_KNOB", 1.5), 1.5);
    EXPECT_EQ(envU64("RIME_TEST_KNOB", 7), 7u);

    setenv("RIME_TEST_KNOB", "2.5", 1);
    EXPECT_EQ(envString("RIME_TEST_KNOB").value(), "2.5");
    EXPECT_DOUBLE_EQ(envDouble("RIME_TEST_KNOB", 1.0), 2.5);

    // Trailing garbage is a user error, not a silent fallback.
    setenv("RIME_TEST_KNOB", "0.5x", 1);
    EXPECT_THROW(envDouble("RIME_TEST_KNOB", 1.0), FatalError);

    setenv("RIME_TEST_KNOB", "42", 1);
    EXPECT_EQ(envU64("RIME_TEST_KNOB", 0), 42u);
    setenv("RIME_TEST_KNOB", "four", 1);
    EXPECT_THROW(envU64("RIME_TEST_KNOB", 0), FatalError);
    setenv("RIME_TEST_KNOB", "-3", 1);
    EXPECT_THROW(envU64("RIME_TEST_KNOB", 0), FatalError);
    unsetenv("RIME_TEST_KNOB");
}

// ---------------------------------------------------------------------
// ThreadPool reentrancy guard
// ---------------------------------------------------------------------

TEST(ThreadPoolDeathTest, ReentrantRunPanics)
{
    // A serial pool (no workers) would happen to execute a nested run
    // correctly; the guard must panic anyway so the misuse cannot
    // hide behind a thread-count setting.
    ThreadPool pool(1);
    EXPECT_DEATH(
        pool.run(1, [&](unsigned) { pool.run(1, [](unsigned) {}); }),
        "not reentrant");
}

// ---------------------------------------------------------------------
// Library-level registry and kernel profiling
// ---------------------------------------------------------------------

TEST(Library, RegistryTreeAndPublishOnce)
{
    const double before =
        StatRegistry::process().group("api").get("extractCalls");
    std::vector<std::uint64_t> raws{5, 3, 9, 1, 7, 2, 8, 6};
    {
        RimeLibrary lib;
        EXPECT_TRUE(lib.statRegistry().has("api"));
        EXPECT_TRUE(lib.statRegistry().has("driver"));
        EXPECT_TRUE(lib.statRegistry().has("device"));
        EXPECT_TRUE(lib.statRegistry().has("chip.0"));

        const auto result = rimeSort(lib, raws,
                                     KeyMode::UnsignedFixed, 32);
        ASSERT_EQ(result.values.size(), raws.size());
        EXPECT_GE(result.hostSeconds, 0.0);
        EXPECT_GT(result.loadSeconds, 0.0);
        // One extract per produced value.
        EXPECT_DOUBLE_EQ(lib.apiStats().get("extractCalls"),
                         static_cast<double>(raws.size()));
        EXPECT_EQ(lib.apiStats().hist("extractLatencyTicks").count(),
                  raws.size());
        EXPECT_GT(lib.driver().stats().get("allocCalls"), 0.0);

        lib.publishStats();
        const double once =
            StatRegistry::process().group("api").get("extractCalls");
        EXPECT_GT(once, before);
        lib.publishStats(); // manual + destructor: still counted once
        EXPECT_DOUBLE_EQ(
            StatRegistry::process().group("api").get("extractCalls"),
            once);

        std::ostringstream os;
        lib.statRegistry().dumpJson(os);
        EXPECT_TRUE(JsonValidator(os.str()).valid()) << os.str();
    }
    // Destruction after an explicit publish must not double-count.
    const double after =
        StatRegistry::process().group("api").get("extractCalls");
    EXPECT_DOUBLE_EQ(after, before + 8.0);
}

// ---------------------------------------------------------------------
// Determinism: stat dumps leave out host wall-clock stats
// ---------------------------------------------------------------------

TEST(Determinism, ChipStatDumpExcludesWallClock)
{
    const std::uint64_t n = 2048;
    auto chip = filledChip(n);
    chip->initRange(0, n);
    for (int i = 0; i < 6; ++i) {
        const auto r = chip->extract(0, n, false);
        EXPECT_TRUE(r.found);
    }
    EXPECT_GT(chip->stats().get("scanWallNs"), 0.0);
    const std::string dump = chipDumpJson(*chip);
    EXPECT_TRUE(JsonValidator(dump).valid());
    // The wall-clock stat was recorded but must not appear.
    EXPECT_EQ(dump.find("WallNs"), std::string::npos);
    EXPECT_NE(dump.find("scanSurvivors"), std::string::npos);
    EXPECT_NE(dump.find("scanStepsPerExtract"), std::string::npos);
}

TEST(Determinism, ChipDumpAfterResetMatchesFreshChip)
{
    // The chip's cached histogram handles must keep feeding the
    // group's histograms across StatGroup::reset().
    const std::uint64_t n = 2048;
    auto used = filledChip(n);
    used->initRange(0, n);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(used->extract(0, n, false).found);
    used->stats().reset();

    auto fresh = filledChip(n);
    fresh->stats().reset();

    for (auto *chip : {used.get(), fresh.get()}) {
        chip->initRange(0, n);
        for (int i = 0; i < 7; ++i)
            ASSERT_TRUE(chip->extract(0, n, i % 2 == 1).found);
    }
    EXPECT_EQ(used->stats().hist("scanStepsPerExtract").count(), 7u);
    EXPECT_GT(used->stats().hist("scanSurvivors").count(), 0u);
    EXPECT_EQ(chipDumpJson(*used), chipDumpJson(*fresh));
}
