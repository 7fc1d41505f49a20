/** @file Unit tests for the endurance / lifetime tracker. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>

#include "common/rng.hh"

#include "rimehw/endurance.hh"

using namespace rime;
using namespace rime::rimehw;

TEST(Endurance, CountsWritesPerBlock)
{
    EnduranceTracker tracker(512);
    tracker.recordWrite(0, 4);
    tracker.recordWrite(100, 4);
    tracker.recordWrite(600, 4);
    EXPECT_EQ(tracker.totalWrites(), 3u);
    EXPECT_EQ(tracker.touchedBlocks(), 2u);
    EXPECT_EQ(tracker.maxBlockWrites(), 2u);
}

TEST(Endurance, SpanningWriteTouchesBothBlocks)
{
    EnduranceTracker tracker(512);
    tracker.recordWrite(510, 8); // crosses the 512-byte boundary
    EXPECT_EQ(tracker.touchedBlocks(), 2u);
}

TEST(Endurance, LifetimeProjection)
{
    EnduranceTracker tracker(512);
    // 1000 writes to one block over 1 simulated second.
    for (int i = 0; i < 1000; ++i)
        tracker.recordWrite(0, 4);
    // 1e8 endurance / 1e3 writes-per-second = 1e5 seconds.
    const double years = tracker.lifetimeYears(1.0, 1e8);
    EXPECT_NEAR(years, 1e5 / (365.25 * 24 * 3600), 1e-9);
}

TEST(Endurance, NoWritesMeansInfiniteLifetime)
{
    EnduranceTracker tracker;
    EXPECT_TRUE(std::isinf(tracker.lifetimeYears(10.0)));
}

TEST(Endurance, PaperLifetimeClaim)
{
    // Section VII-C: with 1e8 endurance the paper reports >= 376
    // years.  That requires the hottest block to see fewer than
    // ~8.4e-3 writes per simulated second; verify the arithmetic.
    EnduranceTracker tracker(512);
    for (int i = 0; i < 84; ++i)
        tracker.recordWrite(0, 4);
    const double years = tracker.lifetimeYears(10000.0, 1e8);
    EXPECT_GT(years, 376.0);
}

TEST(Endurance, Reset)
{
    EnduranceTracker tracker;
    tracker.recordWrite(0, 4);
    tracker.reset();
    EXPECT_EQ(tracker.totalWrites(), 0u);
    EXPECT_EQ(tracker.maxBlockWrites(), 0u);
}

TEST(Endurance, ZeroByteWriteStillWearsItsBlock)
{
    // A zero-length write is a degenerate command that still cycles
    // the target row once; it must not underflow into a write of
    // every block.
    EnduranceTracker tracker(512);
    tracker.recordWrite(100, 0);
    EXPECT_EQ(tracker.totalWrites(), 1u);
    EXPECT_EQ(tracker.touchedBlocks(), 1u);
    EXPECT_EQ(tracker.blockWrites(100), 1u);
    EXPECT_EQ(tracker.blockWrites(600), 0u);
}

TEST(Endurance, WriteStraddlingManyBlocksWearsEach)
{
    EnduranceTracker tracker(512);
    // [500, 1600) covers blocks 0, 1, 2, and 3.
    tracker.recordWrite(500, 1100);
    EXPECT_EQ(tracker.touchedBlocks(), 4u);
    EXPECT_EQ(tracker.totalWrites(), 4u);
    for (const std::uint64_t off : {0u, 512u, 1024u, 1536u})
        EXPECT_EQ(tracker.blockWrites(off), 1u) << off;
    // An exact block-boundary end touches only the blocks it covers.
    tracker.recordWrite(0, 512);
    EXPECT_EQ(tracker.blockWrites(0), 2u);
    EXPECT_EQ(tracker.blockWrites(512), 1u);
}

TEST(Endurance, LifetimeEdgeCases)
{
    EnduranceTracker tracker(512);
    // No writes: infinite, regardless of elapsed time.
    EXPECT_TRUE(std::isinf(tracker.lifetimeYears(0.0)));
    tracker.recordWrite(0, 4);
    // Zero or negative elapsed time cannot produce a finite rate.
    EXPECT_TRUE(std::isinf(tracker.lifetimeYears(0.0)));
    EXPECT_TRUE(std::isinf(tracker.lifetimeYears(-1.0)));
    EXPECT_GT(tracker.lifetimeYears(1.0), 0.0);
}

TEST(Endurance, BlockOfMapsOffsetsToBlocks)
{
    EnduranceTracker tracker(512);
    EXPECT_EQ(tracker.blockOf(0), 0u);
    EXPECT_EQ(tracker.blockOf(511), 0u);
    EXPECT_EQ(tracker.blockOf(512), 1u);
    EXPECT_EQ(tracker.blockOf(5 * 512 + 17), 5u);
}

TEST(Endurance, RandomWritesMatchAMapReference)
{
    // Random offsets and lengths, many spanning block boundaries,
    // against a std::map of per-block counts -- before and after a
    // reset.
    constexpr std::uint64_t kBlock = 512;
    EnduranceTracker tracker(kBlock);
    Rng rng(2024);
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round == 0 ? "fresh" : "after reset");
        std::map<std::uint64_t, std::uint64_t> ref;
        std::uint64_t total = 0;
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t offset = rng.below(64 * kBlock);
            const std::uint64_t bytes = rng.below(8) == 0
                ? rng.below(4 * kBlock) : rng.below(16);
            tracker.recordWrite(offset, bytes);
            const std::uint64_t last =
                (offset + std::max<std::uint64_t>(bytes, 1) - 1) / kBlock;
            for (std::uint64_t b = offset / kBlock; b <= last; ++b) {
                ++ref[b];
                ++total;
            }
        }
        std::uint64_t hottest = 0;
        for (const auto &[block, writes] : ref)
            hottest = std::max(hottest, writes);
        EXPECT_EQ(tracker.touchedBlocks(), ref.size());
        EXPECT_EQ(tracker.maxBlockWrites(), hottest);
        EXPECT_EQ(tracker.totalWrites(), total);
        // Every block up to past the highest one written, at its
        // first, middle and last byte.
        for (std::uint64_t b = 0; b < 72; ++b) {
            const auto it = ref.find(b);
            const std::uint64_t want = it == ref.end() ? 0 : it->second;
            for (const std::uint64_t at :
                 {std::uint64_t{0}, kBlock / 2, kBlock - 1})
                EXPECT_EQ(tracker.blockWrites(b * kBlock + at), want) << b;
        }
        tracker.reset();
        EXPECT_EQ(tracker.touchedBlocks(), 0u);
        EXPECT_EQ(tracker.maxBlockWrites(), 0u);
        EXPECT_EQ(tracker.totalWrites(), 0u);
        EXPECT_EQ(tracker.blockWrites(0), 0u);
    }
}
