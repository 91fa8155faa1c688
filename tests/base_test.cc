/**
 * @file
 * Tests for the base utilities: bit manipulation, the deterministic
 * PRNG, statistics containers, table rendering, and the
 * logging/error primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "base/bits.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/table.hh"

using namespace fireaxe;

TEST(Bits, MaskBoundaries)
{
    EXPECT_EQ(bitMask(1), 1u);
    EXPECT_EQ(bitMask(8), 0xffu);
    EXPECT_EQ(bitMask(63), 0x7fffffffffffffffull);
    EXPECT_EQ(bitMask(64), ~uint64_t(0));
    EXPECT_EQ(bitMask(0), 0u);
}

TEST(Bits, MaskRejectsOverwide)
{
    EXPECT_THROW(bitMask(65), PanicError);
}

TEST(Bits, TruncateKeepsLowBits)
{
    EXPECT_EQ(truncate(0x1234, 8), 0x34u);
    EXPECT_EQ(truncate(0xffffffffffffffffull, 64),
              0xffffffffffffffffull);
    EXPECT_EQ(truncate(5, 1), 1u);
}

TEST(Bits, ExtractRanges)
{
    EXPECT_EQ(extractBits(0xabcd, 15, 8), 0xabu);
    EXPECT_EQ(extractBits(0xabcd, 7, 0), 0xcdu);
    EXPECT_EQ(extractBits(0x8000000000000000ull, 63, 63), 1u);
    EXPECT_THROW(extractBits(1, 3, 5), PanicError);
}

TEST(Bits, BitsNeeded)
{
    EXPECT_EQ(bitsNeeded(0), 1u);
    EXPECT_EQ(bitsNeeded(1), 1u);
    EXPECT_EQ(bitsNeeded(2), 2u);
    EXPECT_EQ(bitsNeeded(255), 8u);
    EXPECT_EQ(bitsNeeded(256), 9u);
}

TEST(Bits, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_THROW(ceilDiv(1, 0), PanicError);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(8);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(10);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += double(rng.geometric(6.0));
    EXPECT_NEAR(sum / 20000.0, 6.0, 0.35);
    EXPECT_EQ(rng.geometric(0.5), 1u); // degenerate mean clamps
}

TEST(Stats, RunningStatBasics)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(2.0);
    s.sample(4.0);
    s.sample(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, DistributionPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(double(i));
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 100.0);
    EXPECT_NEAR(d.percentile(50.0), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(95.0), 95.0, 1.0);
    EXPECT_NEAR(d.percentile(99.0), 99.0, 1.0);
    EXPECT_THROW(d.percentile(101.0), PanicError);
}

TEST(Stats, DistributionEmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.percentile(99.0), 0.0);
    EXPECT_EQ(d.mean(), 0.0);
}

namespace {

/** Read the multi-rank path and percentile(p), and compare both bit
 *  for bit with the nearest-rank rule on a freshly sorted copy of the
 *  reservoir. */
void
expectMatchesReference(const Distribution &d, const std::string &where)
{
    static constexpr double kPs[] = {0.0,  1.0,  25.0, 50.0, 90.0,
                                     95.0, 99.0, 99.9, 100.0};
    std::vector<double> sorted(d.samples());
    std::sort(sorted.begin(), sorted.end());
    double got[std::size(kPs)];
    d.percentiles(kPs, got);
    for (size_t i = 0; i < std::size(kPs); ++i) {
        double p = kPs[i];
        double want = 0.0;
        if (sorted.empty()) {
            want = 0.0;
        } else if (p == 0.0) {
            want = d.min();
        } else if (p == 100.0) {
            want = d.max();
        } else {
            size_t rank = static_cast<size_t>(
                (p / 100.0) * (sorted.size() - 1) + 0.5);
            want = sorted[std::min(rank, sorted.size() - 1)];
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                  std::bit_cast<uint64_t>(want))
            << where << " p" << p << ": " << got[i] << " vs " << want;
        EXPECT_EQ(std::bit_cast<uint64_t>(d.percentile(p)),
                  std::bit_cast<uint64_t>(want))
            << where << " percentile(" << p << ")";
    }
}

/** Seeded samples with many repeats (so evictions must remove one
 *  of several equal values) and a spread of magnitudes. */
double
drawSample(Rng &rng)
{
    switch (rng.below(3)) {
      case 0: return double(rng.below(50));
      case 1: return rng.uniform() * 1e6;
      default: return -rng.uniform() * 3.5;
    }
}

} // namespace

TEST(Stats, PercentileViewMatchesCopyAndSort)
{
    for (size_t cap : {size_t(1), size_t(3), size_t(64), size_t(4096)}) {
        Distribution d(cap);
        Rng rng(0xC0FFEE + cap);
        std::string tag = "cap " + std::to_string(cap);
        expectMatchesReference(d, tag + " empty");

        // Reads interleaved with new samples at uneven strides, from
        // below the cap, through exactly the cap, to 40x past it.
        const uint64_t total = 40 * cap + 17;
        uint64_t next_read = 1;
        for (uint64_t n = 1; n <= total; ++n) {
            d.sample(drawSample(rng));
            if (n == next_read || n == cap || n == cap + 1) {
                expectMatchesReference(
                    d, tag + " n=" + std::to_string(n));
                // A second read of an unchanged distribution is
                // served from the cached view.
                expectMatchesReference(
                    d, tag + " reread n=" + std::to_string(n));
                next_read += 1 + rng.below(cap / 2 + 3);
            }
        }
        EXPECT_FALSE(d.exact());

        // A read after a long unread stretch (more overwrites than
        // the edit log holds) rebuilds the view.
        for (uint64_t i = 0; i < 20 * cap; ++i)
            d.sample(drawSample(rng));
        expectMatchesReference(d, tag + " after unread stretch");

        d.reset();
        EXPECT_EQ(d.count(), 0u);
        expectMatchesReference(d, tag + " after reset");
        for (uint64_t i = 0; i < cap + cap / 2; ++i) {
            d.sample(drawSample(rng));
            if (i % 7 == 0)
                expectMatchesReference(
                    d, tag + " refill " + std::to_string(i));
        }
        expectMatchesReference(d, tag + " refilled");
    }
}

TEST(Stats, CounterSetAccumulates)
{
    CounterSet c;
    c.add("a");
    c.add("a", 4);
    c.add("b", 2);
    EXPECT_EQ(c.get("a"), 5u);
    EXPECT_EQ(c.get("b"), 2u);
    EXPECT_EQ(c.get("missing"), 0u);
    EXPECT_EQ(c.total(), 7u);
    c.reset();
    EXPECT_EQ(c.total(), 0u);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "2"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
    // Header and both rows on separate lines.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(1.0, 0), "1");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom ", 42), FatalError);
    try {
        fatal("code=", 7, " reason=", "x");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "code=7 reason=x");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

TEST(Logging, AssertMacroFiresOnlyWhenFalse)
{
    EXPECT_NO_THROW(FIREAXE_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(FIREAXE_ASSERT(false, "nope ", 3), PanicError);
}
