/**
 * @file
 * InvariantChecker unit tests: registration/stat accounting, runtime
 * disable, and — the point of the subsystem — panics on deliberately
 * corrupted cache, RX-ring and event-queue state. The sweep cadence
 * lives in harness::TestSystem::runFor (tests/harness/test_system.cc).
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cache/invariants.hh"
#include "nic/invariants.hh"
#include "nic/rx_ring.hh"
#include "sim/checker/invariant_checker.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"

#include "../cache/hierarchy_fixture.hh"
#include "callback_event.hh"

namespace
{

using sim::InvariantChecker;
using sim::InvariantReport;

TEST(InvariantChecker, SweepEvaluatesEveryRegisteredInvariant)
{
    sim::Simulation s;
    InvariantChecker chk(s, "chk");

    int aRuns = 0;
    int bRuns = 0;
    chk.registerInvariant("a", [&](InvariantReport &) { ++aRuns; });
    chk.registerInvariant("b", [&](InvariantReport &) { ++bRuns; });
    ASSERT_EQ(chk.numInvariants(), 2u);

    chk.check();
    chk.check();

    // A tree built without the checker makes check() a no-op.
    const int sweeps = InvariantChecker::compiledIn ? 2 : 0;
    EXPECT_EQ(aRuns, sweeps);
    EXPECT_EQ(bRuns, sweeps);
    EXPECT_EQ(chk.sweeps(), std::uint64_t(sweeps));
    EXPECT_EQ(chk.evaluations(), std::uint64_t(2 * sweeps));
    EXPECT_EQ(chk.violations(), 0u);
}

TEST(InvariantCheckerDeathTest, PanicsListingTheViolation)
{
    sim::Simulation s;
    InvariantChecker chk(s, "chk");
    chk.registerInvariant("always-broken", [](InvariantReport &r) {
        r.fail("synthetic violation");
    });
    if (InvariantChecker::compiledIn) {
        EXPECT_DEATH(chk.check(), "synthetic violation");
    } else {
        chk.check(); // compiled out: a no-op that sees nothing
        EXPECT_EQ(chk.sweeps(), 0u);
        EXPECT_EQ(chk.violations(), 0u);
    }
}

TEST(InvariantChecker, DisabledCheckerIsANoOp)
{
    sim::Simulation s;
    InvariantChecker chk(s, "chk");
    int runs = 0;
    chk.registerInvariant("broken", [&](InvariantReport &r) {
        ++runs;
        r.fail("must never be evaluated while disabled");
    });

    chk.setEnabled(false);
    EXPECT_FALSE(chk.enabled());
    chk.check(); // must neither evaluate nor panic
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(chk.sweeps(), 0u);
    EXPECT_EQ(chk.evaluations(), 0u);
}

// ---------------------------------------------------------------------------
// Deliberate corruption: cache hierarchy.
// ---------------------------------------------------------------------------

class CacheCorruptionDeathTest : public testutil::HierarchyTest
{
  protected:
    CacheCorruptionDeathTest() : chk(sim_, "chk")
    {
        cache::registerCacheInvariants(chk, hier);
    }

    InvariantChecker chk;
};

TEST_F(CacheCorruptionDeathTest, CleanHierarchyPasses)
{
    hier.coreRead(0, 0x1000);
    hier.pcieWrite(0x8000);
    chk.check();
    EXPECT_EQ(chk.violations(), 0u);
}

TEST_F(CacheCorruptionDeathTest, MlcLlcDoubleResidencyPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    // Pull a line into core 0's caches, then force a second valid
    // copy of the same line into the LLC behind the hierarchy's back.
    hier.coreRead(0, 0x1000);
    auto &tags = hier.llc().tags();
    tags.fill(tags.findFillSlot(0x1000), 0x1000, false, false);

    EXPECT_DEATH(chk.check(), "exclusivity violated");
}

TEST_F(CacheCorruptionDeathTest, UntrackedMlcLinePanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    // Drop the directory entry while the MLC still holds the line.
    hier.coreRead(0, 0x1000);
    hier.directory().remove(0, 0x1000);

    EXPECT_DEATH(chk.check(), "untracked by the directory");
}

TEST_F(CacheCorruptionDeathTest, StaleDirectorySharerPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    // Directory claims core 1 holds a line its MLC never saw.
    hier.directory().add(1, 0x2000);

    EXPECT_DEATH(chk.check(), "its MLC lacks the line");
}

TEST_F(CacheCorruptionDeathTest, L1LineWithoutMlcBackingPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    auto &tags = hier.l1(0).tags();
    tags.fill(tags.findFillSlot(0x3000), 0x3000, false, false);

    EXPECT_DEATH(chk.check(), "inclusion violated");
}

TEST_F(CacheCorruptionDeathTest, DdioLineOutsideThePartitionPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    // Mark a line in the last (non-DDIO) way as DDIO-allocated.
    auto &tags = hier.llc().tags();
    const std::uint32_t set = tags.setIndex(0x4000);
    const std::uint32_t lastWay = tags.assoc() - 1;
    ASSERT_GE(lastWay, hier.llc().ddioWays());
    tags.fill(tags.at(set, lastWay), 0x4000, false, false)
        .setDdioAlloc();

    EXPECT_DEATH(chk.check(), "DDIO partition");
}

TEST_F(CacheCorruptionDeathTest, ShrinkingThePartitionGrandfathersLines)
{
    // A legal reconfiguration must NOT trip the confinement check:
    // allocate through the real DDIO path, shrink the partition, and
    // verify the stranded lines were grandfathered.
    for (sim::Addr a = 0x10000; a < 0x40000; a += mem::lineSize)
        hier.pcieWrite(a);
    hier.llc().setDdioWays(1);
    chk.check();
    EXPECT_EQ(chk.violations(), 0u);
}

// ---------------------------------------------------------------------------
// Deliberate corruption: RX descriptor ring.
// ---------------------------------------------------------------------------

class RxRingInvariantTest : public ::testing::Test
{
  protected:
    RxRingInvariantTest() : ring(0x100000, 8) {}

    /** Run checkRxRing and return the recorded failures. */
    std::vector<std::string>
    failures()
    {
        InvariantReport report;
        nic::checkRxRing(ring, "ring", report);
        return report.failures();
    }

    nic::RxRing ring;
};

TEST_F(RxRingInvariantTest, LegalLifecycleStaysClean)
{
    for (std::uint32_t i = 0; i < ring.size(); ++i)
        ring.swArm(i, 0x200000 + i * 2048, i);
    EXPECT_TRUE(failures().empty());

    net::Packet pkt;
    const std::uint32_t idx = ring.hwClaim(pkt); // in flight
    EXPECT_TRUE(failures().empty());

    ring.hwComplete(idx); // done
    EXPECT_TRUE(failures().empty());

    EXPECT_EQ(ring.swConsume(), idx); // idle again
    EXPECT_TRUE(failures().empty());
}

TEST_F(RxRingInvariantTest, InFlightAndDoneTogetherIsIllegal)
{
    ring.swArm(0, 0x200000, 0);
    net::Packet pkt;
    ring.hwClaim(pkt);
    ring.slot(0).dd = true; // corrupt: DMA still in flight

    const auto f = failures();
    ASSERT_FALSE(f.empty());
    EXPECT_NE(f.front().find("both in-flight and done"),
              std::string::npos);
}

TEST_F(RxRingInvariantTest, BusyWithoutArmedIsIllegal)
{
    ring.slot(3).dd = true; // never armed, never claimed

    const auto f = failures();
    ASSERT_FALSE(f.empty());
    EXPECT_NE(f.front().find("without being armed"), std::string::npos);
}

TEST_F(RxRingInvariantTest, DmaIntoUnpostedBufferIsIllegal)
{
    ring.swArm(0, 0x200000, 0);
    net::Packet pkt;
    ring.hwClaim(pkt);
    ring.slot(0).bufAddr = 0; // corrupt: buffer address vanished

    const auto f = failures();
    ASSERT_FALSE(f.empty());
    EXPECT_NE(f.front().find("unposted buffer"), std::string::npos);
}

TEST_F(RxRingInvariantTest, BusySlotOutsideTheWindowIsIllegal)
{
    for (std::uint32_t i = 0; i < ring.size(); ++i)
        ring.swArm(i, 0x200000 + i * 2048, i);
    net::Packet pkt;
    ring.hwClaim(pkt); // window is [0, 1)

    ring.slot(5).inFlight = true; // corrupt: claimed out of order

    const auto f = failures();
    ASSERT_FALSE(f.empty());
    EXPECT_NE(f.front().find("outside the hw/sw window"),
              std::string::npos);
}

TEST(RxRingCheckerDeathTest, RegisteredRingInvariantPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    sim::Simulation s;
    InvariantChecker chk(s, "chk");
    nic::RxRing ring(0x100000, 8);
    chk.registerInvariant("ring", [&ring](InvariantReport &r) {
        nic::checkRxRing(ring, "ring", r);
    });

    ring.slot(2).inFlight = true; // unarmed + out-of-window
    EXPECT_DEATH(chk.check(), "panic:.*invariant violation");
}

// ---------------------------------------------------------------------------
// Deliberate corruption: event queue time base.
// ---------------------------------------------------------------------------

TEST(EventQueueCheckerDeathTest, PendingEventInThePastPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    sim::Simulation s;
    InvariantChecker chk(s, "chk");
    sim::registerEventQueueInvariants(chk, s.eventq());

    simtest::Callbacks cb(s.eventq());
    cb.at(10 * sim::oneNs, [] {});
    chk.check(); // legal so far

    // Corrupt the time base: jump past the pending event.
    sim::EventQueueTestAccess::setCurTick(s.eventq(), 20 * sim::oneNs);
    EXPECT_DEATH(chk.check(), "before current tick");
}

TEST(EventQueueCheckerDeathTest, TimeMovingBackwardsPanics)
{
    if (!InvariantChecker::compiledIn)
        GTEST_SKIP() << "checker compiled out";

    sim::Simulation s;
    InvariantChecker chk(s, "chk");
    sim::registerEventQueueInvariants(chk, s.eventq());

    simtest::Callbacks cb(s.eventq());
    cb.at(10 * sim::oneNs, [] {});
    s.runUntil(sim::maxTick);
    chk.check(); // observes tick 10ns

    sim::EventQueueTestAccess::setCurTick(s.eventq(), sim::oneNs);
    EXPECT_DEATH(chk.check(), "went backwards");
}

} // namespace
