/**
 * @file
 * DMA engine tests: pacing, ordering, completions, runs, checkpoints.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "nic/dma.hh"
#include "sim/simulation.hh"

namespace
{

/** Records every transaction with its arrival tick. */
class RecordingTarget : public nic::DmaTarget
{
  public:
    struct Rec
    {
        char kind; // 'W' or 'R'
        sim::Addr addr;
        nic::TlpMeta meta;
        sim::Tick when;
    };

    explicit RecordingTarget(sim::Simulation &s) : s(s) {}

    void
    dmaWrite(sim::Addr addr, const nic::TlpMeta &meta) override
    {
        recs.push_back({'W', addr, meta, s.now()});
    }

    sim::Tick
    dmaRead(sim::Addr addr) override
    {
        recs.push_back({'R', addr, {}, s.now()});
        return 100;
    }

    sim::Simulation &s;
    std::vector<Rec> recs;
};

/** The engine's sink: records every completion with its tick. */
struct CompletionLog
{
    explicit CompletionLog(sim::Simulation &s) : s(s) {}

    void
    record(const nic::DmaCompletion &done)
    {
        at.push_back(s.now());
        dones.push_back(done);
    }

    nic::DmaEngine::Sink
    sink()
    {
        return nic::DmaEngine::Sink::fromMember<&CompletionLog::record>(
            this);
    }

    sim::Simulation &s;
    std::vector<sim::Tick> at;
    std::vector<nic::DmaCompletion> dones;
};

/** Bounds of the engine under test: 2 queues of 16 descriptors. */
constexpr std::uint32_t queues = 2;
constexpr std::uint32_t ringSize = 16;

nic::DmaCompletion
payloadDone(std::uint32_t queue, std::uint32_t idx)
{
    return {nic::DmaCompletion::Kind::PayloadDone, true, queue, idx};
}

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest()
        : target(s), log(s),
          dma(s, "dma", target, 32.0, log.sink(), queues, ringSize)
    {
    }

    sim::Simulation s;
    RecordingTarget target;
    CompletionLog log;
    nic::DmaEngine dma; // 32 GB/s -> 2 ns per line
};

TEST_F(DmaTest, WritesArriveInOrder)
{
    dma.enqueueWrite(0x100, {});
    dma.enqueueWrite(0x140, {});
    dma.enqueueWrite(0x180, {});
    s.runFor(sim::oneUs);

    ASSERT_EQ(target.recs.size(), 3u);
    EXPECT_EQ(target.recs[0].addr, 0x100u);
    EXPECT_EQ(target.recs[1].addr, 0x140u);
    EXPECT_EQ(target.recs[2].addr, 0x180u);
    EXPECT_EQ(dma.linesWritten.get(), 3u);
}

TEST_F(DmaTest, BandwidthPacing)
{
    for (int i = 0; i < 10; ++i)
        dma.enqueueWrite(0x1000 + i * 64, {});
    s.runFor(sim::oneUs);

    // 32 GB/s = 2 ns per 64 B line.
    const sim::Tick gap = sim::nsToTicks(2.0);
    for (std::size_t i = 1; i < target.recs.size(); ++i) {
        EXPECT_EQ(target.recs[i].when - target.recs[i - 1].when, gap);
    }
}

TEST_F(DmaTest, CallbackFiresAfterPrecedingTransfers)
{
    dma.enqueueWrite(0x100, {});
    dma.enqueueWrite(0x140, {});
    dma.enqueueCompletion(payloadDone(1, 5));
    s.runFor(sim::oneUs);

    ASSERT_EQ(target.recs.size(), 2u);
    ASSERT_EQ(log.at.size(), 1u);
    EXPECT_GE(log.at[0], target.recs[1].when);
    EXPECT_EQ(log.dones[0], payloadDone(1, 5));
    EXPECT_EQ(dma.callbacks.get(), 1u);
}

TEST_F(DmaTest, CallbackOrderingInterleaved)
{
    const nic::DmaCompletion tx{nic::DmaCompletion::Kind::TxDone, false,
                                0, 900};
    dma.enqueueWrite(0x100, {});
    dma.enqueueCompletion(payloadDone(0, 1));
    dma.enqueueWrite(0x140, {});
    dma.enqueueCompletion(tx);
    s.runFor(sim::oneUs);
    EXPECT_EQ(log.dones,
              (std::vector<nic::DmaCompletion>{payloadDone(0, 1), tx}));
}

TEST_F(DmaTest, MetadataDeliveredIntact)
{
    nic::TlpMeta m;
    m.appClass = 1;
    m.isHeader = true;
    m.isBurst = true;
    dma.enqueueWrite(0x200, m);
    s.runFor(sim::oneUs);
    ASSERT_EQ(target.recs.size(), 1u);
    EXPECT_EQ(target.recs[0].meta, m);
}

TEST_F(DmaTest, ReadsAndWritesShareTheLink)
{
    dma.enqueueWrite(0x100, {});
    dma.enqueueRead(0x500);
    dma.enqueueWrite(0x140, {});
    s.runFor(sim::oneUs);

    ASSERT_EQ(target.recs.size(), 3u);
    EXPECT_EQ(target.recs[0].kind, 'W');
    EXPECT_EQ(target.recs[1].kind, 'R');
    EXPECT_EQ(target.recs[2].kind, 'W');
    EXPECT_EQ(dma.linesRead.get(), 1u);
}

TEST_F(DmaTest, AddressesLineAligned)
{
    dma.enqueueWrite(0x123, {});
    s.runFor(sim::oneUs);
    EXPECT_EQ(target.recs[0].addr, 0x100u);
}

TEST_F(DmaTest, LateEnqueueResumesPump)
{
    dma.enqueueWrite(0x100, {});
    s.runFor(sim::oneUs);
    EXPECT_EQ(target.recs.size(), 1u);

    dma.enqueueWrite(0x140, {});
    s.runFor(sim::oneUs);
    EXPECT_EQ(target.recs.size(), 2u);
}

nic::TlpMeta
runMeta()
{
    nic::TlpMeta m;
    m.appClass = 1;
    m.isBurst = true;
    m.destCore = 3;
    return m;
}

TEST_F(DmaTest, RunArrivesOneLinePerLineTime)
{
    const nic::TlpMeta m = runMeta();
    dma.enqueueWrite(0x1000, m, 5);
    s.runFor(sim::oneUs);

    ASSERT_EQ(target.recs.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(target.recs[i].kind, 'W');
        EXPECT_EQ(target.recs[i].addr, 0x1000u + i * 64);
        EXPECT_EQ(target.recs[i].when, i * sim::nsToTicks(2.0));
        EXPECT_EQ(target.recs[i].meta, m);
    }
    EXPECT_EQ(dma.linesWritten.get(), 5u);
}

TEST_F(DmaTest, CallbackAfterRunFiresAfterItsLastLine)
{
    dma.enqueueRead(0x2000, 4);
    dma.enqueueCompletion(payloadDone(0, 0));
    s.runFor(sim::oneUs);

    ASSERT_EQ(target.recs.size(), 4u);
    EXPECT_EQ(dma.linesRead.get(), 4u);
    ASSERT_EQ(log.at.size(), 1u);
    EXPECT_EQ(log.at[0], target.recs[3].when + sim::nsToTicks(2.0));
    EXPECT_EQ(dma.callbacks.get(), 1u);
}

TEST_F(DmaTest, ZeroLineEnqueueSchedulesNothing)
{
    dma.enqueueWrite(0x1000, runMeta(), 0);
    dma.enqueueRead(0x1000, 0);
    EXPECT_TRUE(s.eventq().empty());
    s.runFor(sim::oneUs);
    EXPECT_TRUE(target.recs.empty());
}

/** One engine in its own simulation, logging its completions. */
struct Rig
{
    Rig()
        : target(s), log(s),
          dma(s, "dma", target, 32.0, log.sink(), queues, ringSize)
    {
    }

    sim::Simulation s;
    RecordingTarget target;
    CompletionLog log;
    nic::DmaEngine dma;
};

const nic::DmaCompletion done = payloadDone(1, 15);

/** A TX completion names an mbuf, which the ring size does not bound. */
const nic::DmaCompletion txDone{nic::DmaCompletion::Kind::TxDone, false, 1,
                                900};

/** Far enough for 2 of 5 lines (at 0 and 2 ns), not the third. */
const sim::Tick twoLines = sim::nsToTicks(3.0);

TEST(DmaCheckpoint, RunSavesAsOneRecordPerLine)
{
    Rig run;
    run.dma.enqueueWrite(0x1000, runMeta(), 5);
    run.dma.enqueueCompletion(done);
    run.s.runFor(twoLines);
    ASSERT_EQ(run.target.recs.size(), 2u);

    Rig lines;
    for (std::uint32_t i = 0; i < 5; ++i)
        lines.dma.enqueueWrite(0x1000 + i * 64, runMeta());
    lines.dma.enqueueCompletion(done);
    lines.s.runFor(twoLines);
    ASSERT_EQ(lines.target.recs.size(), 2u);

    EXPECT_EQ(ckpt::save(run.s), ckpt::save(lines.s));
}

TEST(DmaCheckpoint, RestoredRunFinishesAtTheSameTicks)
{
    Rig cold;
    cold.dma.enqueueWrite(0x1000, runMeta(), 5);
    cold.dma.enqueueCompletion(done);
    cold.dma.enqueueRead(0x4000);
    cold.dma.enqueueCompletion(txDone);
    cold.s.runFor(twoLines);
    const auto blob = ckpt::save(cold.s);
    cold.s.runFor(sim::oneUs);
    ASSERT_EQ(cold.target.recs.size(), 6u);
    ASSERT_EQ(cold.log.dones,
              (std::vector<nic::DmaCompletion>{done, txDone}));

    Rig warm;
    ckpt::restore(warm.s, blob);
    warm.s.runFor(sim::oneUs - twoLines);

    ASSERT_EQ(warm.target.recs.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        const RecordingTarget::Rec &want = cold.target.recs[i + 2];
        EXPECT_EQ(warm.target.recs[i].kind, want.kind);
        EXPECT_EQ(warm.target.recs[i].addr, want.addr);
        EXPECT_EQ(warm.target.recs[i].when, want.when);
        EXPECT_EQ(warm.target.recs[i].meta, want.meta);
    }
    EXPECT_EQ(warm.log.at, cold.log.at);
    EXPECT_EQ(warm.log.dones, cold.log.dones);
    EXPECT_EQ(warm.dma.linesWritten.get(), 5u);
}

} // anonymous namespace
