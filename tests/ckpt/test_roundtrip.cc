/**
 * @file
 * Whole-system checkpoint round-trip gates.
 *
 * The contract under test: checkpoint a running system at tick T,
 * restore the blob into a freshly built system of the same config,
 * run both to T2 — and the Totals, the full stats-registry JSON and
 * the packet-lifecycle trace are bit-identical to the uninterrupted
 * run. Covered for the DDIO baseline, the full IDIO policy and the
 * L2Fwd (TX-completion) workload at a mid-burst T, plus the
 * warm-start fork mode the fig14 threshold sweep uses.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/serializer.hh"
#include "harness/run_report.hh"
#include "harness/system.hh"
#include "stats/json.hh"
#include "trace/chrome_export.hh"

namespace
{

constexpr sim::Tick quantum = 10 * sim::oneUs;
constexpr sim::Tick ckptTick = 2 * quantum;  // mid-burst
constexpr sim::Tick endTick = 20 * quantum;

harness::ExperimentConfig
burstConfig(idio::Policy policy, harness::NfKind kind)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 2;
    cfg.nfKind = kind;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(policy);
    return cfg;
}

std::string
statsJson(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    return os.str();
}

/** Where one section's fields sit in a checkpoint blob. */
struct SectionAt
{
    std::size_t version;  ///< u32 section version
    std::size_t checksum; ///< u64 FNV-1a of the payload
    std::size_t payload;  ///< first payload byte
    std::size_t size;     ///< payload bytes
};

/** Walk @p blob's section table (serializer.hh) to @p name. */
SectionAt
sectionAt(const std::vector<std::uint8_t> &blob, const std::string &name)
{
    auto read = [&blob](std::size_t pos, auto &out) {
        std::memcpy(&out, blob.data() + pos, sizeof(out));
    };
    std::size_t pos = 8 + 4 + 8 + 8; // magic, format, seed, tick
    std::uint32_t count = 0;
    read(pos, count);
    pos += 4;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t nameLen = 0;
        read(pos, nameLen);
        pos += 4;
        const std::string n(blob.begin() + std::ptrdiff_t(pos),
                            blob.begin() + std::ptrdiff_t(pos + nameLen));
        pos += nameLen;
        SectionAt s{};
        s.version = pos;
        std::uint64_t size = 0;
        read(pos + 4, size);
        s.checksum = pos + 12;
        s.payload = pos + 20;
        s.size = std::size_t(size);
        pos = s.payload + s.size;
        if (n == name)
            return s;
    }
    ADD_FAILURE() << "no section '" << name << "'";
    return SectionAt{};
}

/** DMA record tags of a pending completion (nic/dma.cc). */
constexpr std::uint8_t payloadDoneTag = 2;
constexpr std::uint8_t txDoneTag = 4;

/** Blob offset of each pending completion record in a DMA section. */
std::vector<std::size_t>
dmaCompletions(const std::vector<std::uint8_t> &blob, const SectionAt &sec)
{
    std::vector<std::size_t> found;
    if (sec.size == 0)
        return found; // sectionAt() failed
    const std::size_t end = sec.payload + sec.size;
    std::size_t pos = sec.payload;
    if (blob[pos++] != 0)
        pos += 16; // the pump event's {when, seq}
    std::uint64_t records = 0;
    std::memcpy(&records, blob.data() + pos, sizeof(records));
    pos += sizeof(records);
    for (std::uint64_t i = 0; i < records && pos < end; ++i) {
        // Write line: tag, addr, TLP meta. Read line: tag, addr.
        // Completion: tag, queue, index, burst bit.
        const std::uint8_t tag = blob[pos];
        if (tag >= payloadDoneTag)
            found.push_back(pos);
        pos += tag == 0 ? 16 : tag == 1 ? 9 : 10;
    }
    EXPECT_EQ(pos, end);
    return found;
}

/** Recompute @p sec's checksum after its payload was rewritten. */
void
resum(std::vector<std::uint8_t> &blob, const SectionAt &sec)
{
    const std::uint64_t sum =
        ckpt::fnv1a(blob.data() + sec.payload, sec.size);
    std::memcpy(blob.data() + sec.checksum, &sum, sizeof(sum));
}

/** Run cold to T2, checkpointing at T on the way through. */
std::vector<std::uint8_t>
expectRoundTripIdentical(const harness::ExperimentConfig &cfg)
{
    harness::TestSystem cold(cfg);
    cold.start();
    cold.runFor(ckptTick);
    const auto blob = cold.checkpoint();
    EXPECT_FALSE(blob.empty());
    const harness::Totals atCkpt = cold.totals();
    cold.runFor(endTick - ckptTick);
    const harness::Totals want = cold.totals();
    const std::string wantJson = statsJson(cold);

    harness::TestSystem warm(cfg);
    warm.start();
    warm.restore(blob);
    EXPECT_EQ(warm.simulation().now(), ckptTick);
    EXPECT_EQ(warm.totals(), atCkpt);
    warm.runFor(endTick - ckptTick);

    EXPECT_EQ(warm.totals(), want);
    EXPECT_EQ(statsJson(warm), wantJson);
    return blob;
}

TEST(CkptRoundTrip, DdioTouchDropMidBurst)
{
    expectRoundTripIdentical(
        burstConfig(idio::Policy::Ddio, harness::NfKind::TouchDrop));
}

TEST(CkptRoundTrip, IdioTouchDropMidBurst)
{
    expectRoundTripIdentical(
        burstConfig(idio::Policy::Idio, harness::NfKind::TouchDrop));
}

TEST(CkptRoundTrip, IdioL2FwdMidBurst)
{
    const auto blob = expectRoundTripIdentical(
        burstConfig(idio::Policy::Idio, harness::NfKind::L2Fwd));

    // The cut holds a pending payload and TX completion, so both
    // record kinds are saved and replayed.
    std::size_t payload = 0;
    std::size_t tx = 0;
    for (const char *port : {"system.nf0.nic.dma", "system.nf1.nic.dma"}) {
        for (const std::size_t pos :
             dmaCompletions(blob, sectionAt(blob, port))) {
            payload += blob[pos] == payloadDoneTag;
            tx += blob[pos] == txDoneTag;
        }
    }
    EXPECT_GE(payload, 1u);
    EXPECT_GE(tx, 1u);
}

TEST(CkptRoundTrip, IdioCopyTouchDropMidBurst)
{
    expectRoundTripIdentical(burstConfig(
        idio::Policy::Idio, harness::NfKind::CopyTouchDrop));
}

/** Section @p name opens with a pending DMA pump's {when, seq}. */
bool
pumpPending(const std::vector<std::uint8_t> &blob, const std::string &name)
{
    const SectionAt sec = sectionAt(blob, name);
    return sec.size != 0 && blob[sec.payload] != 0;
}

/** Prefetcher section @p name ends with a pending issue's {when, seq}. */
bool
issuePending(const std::vector<std::uint8_t> &blob, const std::string &name)
{
    const SectionAt sec = sectionAt(blob, name);
    if (sec.size < 12)
        return false;
    std::uint64_t hints = 0; // after the u32 outstanding count
    std::memcpy(&hints, blob.data() + sec.payload + 4, sizeof(hints));
    const std::size_t at = sec.payload + 12 + 8 * std::size_t(hints);
    return at < sec.payload + sec.size && blob[at] != 0;
}

TEST(CkptRoundTrip, CutInsideAnAgentStretch)
{
    // Mid-burst, off every pump and issue grid: the cut's run limit
    // ends a stretch of the queue's agent while it holds both ports'
    // pumps and a prefetcher's issue. The restored run finishes
    // bit-identically, its logical steps included, and takes the
    // dispatches the uncut run took after the cut.
    const auto cfg =
        burstConfig(idio::Policy::Idio, harness::NfKind::TouchDrop);
    const sim::Tick cut = ckptTick + 1234;

    harness::TestSystem cold(cfg);
    cold.start();
    cold.runFor(cut);
    const auto blob = cold.checkpoint();
    const sim::EventQueue &coldQ = cold.simulation().eventq();
    EXPECT_TRUE(pumpPending(blob, "system.nf0.nic.dma"));
    EXPECT_TRUE(pumpPending(blob, "system.nf1.nic.dma"));
    EXPECT_TRUE(issuePending(blob, "system.idio.prefetcher0") ||
                issuePending(blob, "system.idio.prefetcher1"));
    const std::size_t membersAtCut =
        sim::EventQueueTestAccess::agentMembers(coldQ);
    EXPECT_GE(membersAtCut, 3u);
    const std::uint64_t dispatchesAtCut = coldQ.processedEvents();
    EXPECT_LT(dispatchesAtCut, coldQ.logicalSteps());
    cold.runFor(endTick - cut);

    harness::TestSystem warm(cfg);
    warm.start();
    warm.restore(blob);
    const sim::EventQueue &warmQ = warm.simulation().eventq();
    EXPECT_EQ(sim::EventQueueTestAccess::agentMembers(warmQ),
              membersAtCut);
    warm.runFor(endTick - cut);

    EXPECT_EQ(warm.totals(), cold.totals());
    EXPECT_EQ(statsJson(warm), statsJson(cold));
    EXPECT_EQ(warmQ.logicalSteps(), coldQ.logicalSteps());
    EXPECT_EQ(warmQ.processedEvents(),
              coldQ.processedEvents() - dispatchesAtCut);
}

TEST(CkptRoundTrip, SaveIsObservationallyPure)
{
    // Saving must only read state: a run that checkpoints mid-burst
    // matches one that never does.
    const auto cfg =
        burstConfig(idio::Policy::Idio, harness::NfKind::TouchDrop);

    harness::TestSystem plain(cfg);
    plain.start();
    plain.runFor(endTick);

    harness::TestSystem saver(cfg);
    saver.start();
    saver.runFor(ckptTick);
    (void)saver.checkpoint();
    saver.runFor(endTick - ckptTick);

    EXPECT_EQ(saver.totals(), plain.totals());
    EXPECT_EQ(statsJson(saver), statsJson(plain));
}

TEST(CkptRoundTrip, TraceIsIdenticalAfterRestore)
{
    const auto cfg =
        burstConfig(idio::Policy::Idio, harness::NfKind::TouchDrop);

    const std::string coldPath =
        ::testing::TempDir() + "/ckpt_cold_trace.json";
    const std::string warmPath =
        ::testing::TempDir() + "/ckpt_warm_trace.json";

    harness::TestSystem cold(cfg);
    harness::enableTracing(cold);
    cold.start();
    cold.runFor(ckptTick);
    const auto blob = cold.checkpoint();
    cold.runFor(endTick - ckptTick);
    ASSERT_TRUE(trace::writeChromeTrace(coldPath,
                                        cold.simulation().tracer()));

    harness::TestSystem warm(cfg);
    harness::enableTracing(warm);
    warm.start();
    warm.restore(blob);
    warm.runFor(endTick - ckptTick);
    ASSERT_TRUE(trace::writeChromeTrace(warmPath,
                                        warm.simulation().tracer()));

    // The tracer section replays the pre-T retained events and the
    // post-T suffix is re-generated live, so the whole file matches.
    std::ifstream a(coldPath), b(warmPath);
    const std::string coldTrace(
        (std::istreambuf_iterator<char>(a)),
        std::istreambuf_iterator<char>());
    const std::string warmTrace(
        (std::istreambuf_iterator<char>(b)),
        std::istreambuf_iterator<char>());
    ASSERT_FALSE(coldTrace.empty());
    EXPECT_EQ(coldTrace, warmTrace);
}

TEST(CkptRoundTrip, FileRoundTripMatchesInMemory)
{
    const auto cfg =
        burstConfig(idio::Policy::Idio, harness::NfKind::TouchDrop);
    const std::string path = ::testing::TempDir() + "/roundtrip.ckpt";

    harness::TestSystem cold(cfg);
    cold.start();
    cold.runFor(ckptTick);
    ckpt::saveToFile(path, cold.simulation());
    cold.runFor(endTick - ckptTick);

    harness::TestSystem warm(cfg);
    warm.start();
    ckpt::restoreFromFile(path, warm.simulation());
    warm.runFor(endTick - ckptTick);

    EXPECT_EQ(warm.totals(), cold.totals());
    EXPECT_EQ(statsJson(warm), statsJson(cold));
}

TEST(CkptRoundTrip, SeedMismatchIsFatal)
{
    auto cfg =
        burstConfig(idio::Policy::Ddio, harness::NfKind::TouchDrop);
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(ckptTick);
    const auto blob = sys.checkpoint();

    cfg.seed = 99;
    harness::TestSystem other(cfg);
    other.start();
    EXPECT_EXIT(other.restore(blob), ::testing::ExitedWithCode(1),
                "seed");
}

/** The DDIO TouchDrop single-burst system. */
harness::ExperimentConfig
ddioConfig()
{
    return burstConfig(idio::Policy::Ddio, harness::NfKind::TouchDrop);
}

/** A mid-burst checkpoint of @p cfg's single-burst system. */
std::vector<std::uint8_t>
midBurstCheckpoint(const harness::ExperimentConfig &cfg = ddioConfig())
{
    harness::TestSystem sys(cfg);
    sys.start();
    sys.runFor(ckptTick);
    return sys.checkpoint();
}

/** Restore @p blob into a fresh @p cfg system; it must die naming @p what. */
void
expectRestoreFatal(const std::vector<std::uint8_t> &blob,
                   const std::string &what,
                   const harness::ExperimentConfig &cfg = ddioConfig())
{
    harness::TestSystem sys(cfg);
    sys.start();
    EXPECT_EXIT(sys.restore(blob), ::testing::ExitedWithCode(1), what);
}

/** Buffers in each NF's pool: the 256-entry ring plus 128 head-room. */
constexpr std::uint32_t poolMbufs = 256 + 128;

TEST(CkptEventqDeathTest, SectionVersion4IsFatal)
{
    auto blob = midBurstCheckpoint();
    const SectionAt eq = sectionAt(blob, "_eventq");
    ASSERT_EQ(eq.size, 32u); // {tick, nextSeq, processed, pending}
    const std::uint32_t v4 = 4;
    std::memcpy(blob.data() + eq.version, &v4, sizeof(v4));
    expectRestoreFatal(blob, "section version 4");
}

TEST(CkptEventqDeathTest, PendingCountMismatchIsFatal)
{
    auto blob = midBurstCheckpoint();
    const SectionAt eq = sectionAt(blob, "_eventq");
    ASSERT_EQ(eq.size, 32u);
    std::uint8_t *pending = blob.data() + eq.payload + 24;
    std::uint64_t n = 0;
    std::memcpy(&n, pending, sizeof(n));
    ++n;
    std::memcpy(pending, &n, sizeof(n));
    // Keep the section checksum valid so the count check is reached.
    resum(blob, eq);
    expectRestoreFatal(blob, "pending events");
}

/**
 * Rewrite the first pending completion of port 0's DMA section in a
 * mid-burst checkpoint: @p edit gets the record's tag byte.
 */
template <typename Edit>
std::vector<std::uint8_t>
withBadCompletion(Edit edit)
{
    auto blob = midBurstCheckpoint();
    const SectionAt dma = sectionAt(blob, "system.nf0.nic.dma");
    const std::vector<std::size_t> done = dmaCompletions(blob, dma);
    EXPECT_FALSE(done.empty());
    if (!done.empty())
        edit(blob.data() + done.front());
    resum(blob, dma);
    return blob;
}

TEST(CkptDmaDeathTest, CompletionQueueOutOfRangeIsFatal)
{
    // Each port of the two-NF machine has one queue.
    const auto blob = withBadCompletion([](std::uint8_t *rec) {
        const std::uint32_t queue = 1;
        std::memcpy(rec + 1, &queue, sizeof(queue));
    });
    expectRestoreFatal(blob, "out of range .*system.nf0.nic.dma");
}

TEST(CkptDmaDeathTest, CompletionIndexOutOfRangeIsFatal)
{
    const auto blob = withBadCompletion([](std::uint8_t *rec) {
        const std::uint32_t index = 256; // the ring has 256 entries
        std::memcpy(rec + 5, &index, sizeof(index));
    });
    expectRestoreFatal(blob, "out of range .*system.nf0.nic.dma");
}

TEST(CkptDmaDeathTest, UnknownCompletionKindIsFatal)
{
    const auto blob =
        withBadCompletion([](std::uint8_t *rec) { rec[0] = 5; });
    expectRestoreFatal(blob, "bad DMA record kind 5 .*system.nf0.nic.dma");
}

TEST(CkptNicDeathTest, RxSlotMbufOutOfRangeIsFatal)
{
    auto blob = midBurstCheckpoint();
    const SectionAt nic = sectionAt(blob, "system.nf0.nic");
    // Queue count, ring 0's heads and size, slot 0's buffer address,
    // then slot 0's mbuf index.
    std::uint32_t mbuf = 0;
    std::memcpy(&mbuf, blob.data() + nic.payload + 24, sizeof(mbuf));
    ASSERT_LT(mbuf, poolMbufs);
    mbuf = poolMbufs;
    std::memcpy(blob.data() + nic.payload + 24, &mbuf, sizeof(mbuf));
    resum(blob, nic);
    expectRestoreFatal(blob, "mbuf 384, out of range .*'system.nf0.nic'");
}

TEST(CkptDmaDeathTest, TxDoneMbufOutOfRangeIsFatal)
{
    // L2Fwd transmits: mid-burst, a TX completion is queued behind
    // the frame's read lines.
    const auto cfg =
        burstConfig(idio::Policy::Idio, harness::NfKind::L2Fwd);
    auto blob = midBurstCheckpoint(cfg);
    for (const std::string port : {"system.nf0.nic.dma",
                                   "system.nf1.nic.dma"}) {
        const SectionAt dma = sectionAt(blob, port);
        for (const std::size_t at : dmaCompletions(blob, dma)) {
            if (blob[at] != txDoneTag)
                continue;
            std::memcpy(blob.data() + at + 5, &poolMbufs,
                        sizeof(poolMbufs));
            resum(blob, dma);
            expectRestoreFatal(blob,
                               "mbuf 384 is out of range .*'" + port + "'",
                               cfg);
            return;
        }
    }
    ADD_FAILURE() << "no TX completion pending at the cut";
}

/**
 * Warm-start fork gate (the fig14 --warm-start mode): one warm-up
 * under the first threshold's config, then each threshold forks from
 * the restored state — and matches its own cold run bit for bit,
 * because during the warm window the measured writeback rate is
 * either zero or far above every swept threshold, so the controller
 * makes identical decisions whatever the threshold.
 */
TEST(CkptWarmFork, ThresholdFamilyMatchesColdRuns)
{
    auto thrConfig = [](double thr) {
        auto cfg = burstConfig(idio::Policy::Idio,
                               harness::NfKind::TouchDrop);
        cfg.idio.mlcThrMtps = thr;
        return cfg;
    };

    // Shared warm-up under the first threshold.
    harness::TestSystem warmup(thrConfig(10.0));
    warmup.start();
    warmup.runFor(ckptTick);
    const auto blob = warmup.checkpoint();

    for (double thr : {10.0, 50.0, 100.0}) {
        const auto cfg = thrConfig(thr);

        harness::TestSystem cold(cfg);
        cold.start();
        cold.runFor(endTick);

        harness::TestSystem fork(cfg);
        fork.start();
        fork.restore(blob);
        fork.runFor(endTick - ckptTick);

        EXPECT_EQ(fork.totals(), cold.totals())
            << "thr=" << thr << " diverged from its cold run";
        EXPECT_EQ(statsJson(fork), statsJson(cold)) << "thr=" << thr;
    }
}

} // anonymous namespace
