/** @file Unit tests for BitVector, RramArray, ArrayUnit, and ScanLatches. */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "rimehw/array.hh"
#include "rimehw/bitvector.hh"
#include "rimehw/latches.hh"
#include "rimehw/unit.hh"

using namespace rime;
using namespace rime::rimehw;

TEST(BitVector, BasicOps)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.count(), 0u);
    EXPECT_FALSE(v.any());
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_EQ(v.count(), 3u);
    EXPECT_TRUE(v.test(64));
    EXPECT_FALSE(v.test(63));
    EXPECT_EQ(v.firstSet(), 0u);
    v.set(0, false);
    EXPECT_EQ(v.firstSet(), 64u);
    v.clearAll();
    EXPECT_EQ(v.firstSet(), 130u);
}

TEST(BitVector, RangeAndLogicOps)
{
    BitVector a(100);
    BitVector b(100);
    a.setRange(10, 20);
    b.setRange(15, 25);
    EXPECT_EQ(a.count(), 10u);

    BitVector and_v = a;
    and_v &= b;
    EXPECT_EQ(and_v.count(), 5u);
    EXPECT_TRUE(and_v.test(15));
    EXPECT_FALSE(and_v.test(10));

    BitVector or_v = a;
    or_v |= b;
    EXPECT_EQ(or_v.count(), 15u);

    BitVector diff = a;
    diff.andNot(b);
    EXPECT_EQ(diff.count(), 5u);
    EXPECT_TRUE(diff.test(10));
    EXPECT_FALSE(diff.test(15));
}

TEST(BitVector, SetAllRespectsSize)
{
    BitVector v(70);
    v.setAll();
    EXPECT_EQ(v.count(), 70u);
}

TEST(RramArray, WriteReadRoundTrip)
{
    RramArray array(16, 64);
    Rng rng(3);
    for (unsigned row = 0; row < 16; ++row) {
        const std::uint64_t value = rng() & 0xFFFFFFFF;
        array.writeRowBits(row, 8, 32, value);
        EXPECT_EQ(array.readRowBits(row, 8, 32), value);
    }
}

TEST(RramArray, ColumnSearchMatchesStoredBits)
{
    RramArray array(8, 16);
    // Column 3 bits per row: 1,0,1,0,1,0,1,0.
    for (unsigned row = 0; row < 8; ++row)
        array.writeRowBits(row, 3, 1, row % 2 == 0 ? 1 : 0);

    BitVector select(8);
    select.setRange(0, 8);
    const auto r1 = array.columnSearch(3, true, select);
    EXPECT_TRUE(r1.anyMatch);
    EXPECT_TRUE(r1.anyMismatch);
    EXPECT_EQ(r1.match.count(), 4u);
    EXPECT_TRUE(r1.match.test(0));
    EXPECT_FALSE(r1.match.test(1));

    // Restrict the selection to odd rows: searching for 1 matches
    // nothing.
    BitVector odd(8);
    for (unsigned row = 1; row < 8; row += 2)
        odd.set(row);
    const auto r2 = array.columnSearch(3, true, odd);
    EXPECT_FALSE(r2.anyMatch);
    EXPECT_TRUE(r2.anyMismatch);

    const auto r3 = array.columnSearch(3, false, odd);
    EXPECT_TRUE(r3.anyMatch);
    EXPECT_FALSE(r3.anyMismatch);
}

TEST(ArrayUnit, SlotGroupsAreIndependent)
{
    RramArray array(8, 64);
    ArrayUnit u0(&array, 0, 16);
    ArrayUnit u1(&array, 1, 16);
    u0.writeValue(2, 0xAAAA);
    u1.writeValue(2, 0x5555);
    EXPECT_EQ(u0.readValue(2), 0xAAAAu);
    EXPECT_EQ(u1.readValue(2), 0x5555u);
}

TEST(ArrayUnit, SelectAndExclusionLatches)
{
    RramArray array(8, 32);
    ArrayUnit unit(&array, 0, 32);
    for (unsigned row = 0; row < 8; ++row)
        unit.writeValue(row, row + 1);
    unit.setRange(2, 6);
    unit.clearExclusions(0, 8);
    const std::vector<ArrayUnit *> run{&unit};
    ScanLatches latches;
    latches.bind(run);
    std::size_t pos = 0;
    unsigned row = 0;
    EXPECT_EQ(latches.load(run), 4u);
    EXPECT_EQ(latches.survivors(0), 4u);
    ASSERT_TRUE(latches.firstSurvivor(pos, row));
    EXPECT_EQ(row, 2u);

    unit.exclude(2);
    EXPECT_EQ(latches.load(run), 3u);
    ASSERT_TRUE(latches.firstSurvivor(pos, row));
    EXPECT_EQ(row, 3u);

    unit.clearExclusions(0, 8);
    EXPECT_EQ(latches.load(run), 4u);
}

TEST(ArrayUnit, ProbeAndCommit)
{
    RramArray array(8, 8);
    ArrayUnit unit(&array, 0, 8);
    // Values 4..11 in rows 0..7 (MSB at column 0).
    for (unsigned row = 0; row < 8; ++row)
        unit.writeValue(row, row + 4);
    unit.setRange(0, 8);
    unit.clearExclusions(0, 8);
    const std::vector<ArrayUnit *> run{&unit};
    ScanLatches fused, recorded;
    fused.bind(run);
    recorded.bind(run);
    fused.load(run);
    recorded.load(run);

    // Bit 3 (step 4 from the MSB of an 8-bit word): values 8..11 have
    // it set.
    for (const auto &probe :
         {fused.probe(4, true), recorded.probeRecorded(run, 4, true)}) {
        EXPECT_TRUE(probe.anyMatch);
        EXPECT_TRUE(probe.anyMismatch);
    }
    EXPECT_EQ(fused.commit(4, true), 4u); // 4..7 remain
    EXPECT_EQ(recorded.commitRecorded(), 4u);
    for (const ScanLatches *latches : {&fused, &recorded}) {
        std::size_t pos = 0;
        unsigned row = 0;
        ASSERT_TRUE(latches->firstSurvivor(pos, row));
        EXPECT_EQ(row, 0u);
        EXPECT_EQ(latches->select(0)[0], 0x0Fu);
    }

    // Bit 1 splits 4..7 again; a drained unit adds nothing.
    const auto split = fused.probe(6, true);
    EXPECT_TRUE(split.anyMatch && split.anyMismatch);
    unit.setRange(0, 0);
    fused.load(run);
    const auto quiet = fused.probe(6, true);
    EXPECT_FALSE(quiet.anyMatch || quiet.anyMismatch);
    EXPECT_EQ(fused.commit(6, true), 0u);
}
