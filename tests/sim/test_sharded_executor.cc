/**
 * @file
 * ShardedExecutor tests.
 *
 * The executor's contract is bit-identical results for any host
 * thread count; these tests pin each piece of the determinism
 * argument: single-domain equivalence with a plain runUntil, the
 * (tick, source, sequence) cross-post merge, the conservative-window
 * panic, the time base reaching the limit in idle domains, and
 * identical event logs across jobs=1/2/4.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/shard/executor.hh"

using sim::Tick;
using sim::shard::DomainId;
using sim::shard::ShardedExecutor;

namespace
{

TEST(ShardedExecutor, SingleDomainMatchesPlainRunUntil)
{
    // Reference: a plain queue.
    sim::EventQueue ref;
    std::vector<Tick> refLog;
    for (Tick t : {Tick(10), Tick(25), Tick(25), Tick(40), Tick(990)})
        ref.schedule(t, [&refLog, &ref] { refLog.push_back(ref.now()); });
    ref.runUntil(1000);

    // Same schedule through the executor, window much smaller than
    // the span so chunking is exercised.
    ShardedExecutor exec(1);
    const DomainId d = exec.addDomain("only");
    exec.setWindow(7);
    std::vector<Tick> log;
    sim::EventQueue &q = exec.queue(d);
    for (Tick t : {Tick(10), Tick(25), Tick(25), Tick(40), Tick(990)})
        q.schedule(t, [&log, &q] { log.push_back(q.now()); });
    const std::uint64_t n = exec.runUntil(1000);

    EXPECT_EQ(n, 5u);
    EXPECT_EQ(log, refLog);
    EXPECT_EQ(q.now(), ref.now());
    EXPECT_EQ(q.now(), Tick(1000));
    // Idle skipping: far fewer windows than span/window.
    EXPECT_LT(exec.windowsRun(), 20u);
}

TEST(ShardedExecutor, CrossPostsMergeByTickSourceSequence)
{
    ShardedExecutor exec(1);
    const DomainId a = exec.addDomain("a");
    const DomainId b = exec.addDomain("b");
    const DomainId c = exec.addDomain("c");
    exec.setWindow(10);

    // Posts staged outside any window, deliberately out of order:
    // delivery must sort to (tick, source domain, staging sequence).
    std::vector<int> log;
    exec.post(c, b, 100, [&log] { log.push_back(3); });
    exec.post(a, b, 100, [&log] { log.push_back(1); });
    exec.post(a, b, 100, [&log] { log.push_back(2); });
    exec.post(c, b, 50, [&log] { log.push_back(0); });
    exec.runUntil(200);

    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(exec.crossPostsDelivered(), 4u);
}

/** Ping-pong across two domains; returns the merged event log. */
std::vector<std::pair<int, Tick>>
runPingPong(unsigned jobs)
{
    ShardedExecutor exec(jobs);
    const DomainId a = exec.addDomain("a");
    const DomainId b = exec.addDomain("b");
    const Tick latency = 100;
    exec.setWindow(latency);

    // Per-domain logs: each is only ever touched by the thread
    // running its domain, and the window barrier publishes writes.
    std::vector<Tick> logA, logB;

    // fn(a@t): log, post to b at t+latency, which posts back, ...
    struct Bouncer
    {
        ShardedExecutor &exec;
        DomainId self, peer;
        std::vector<Tick> &log;
        Bouncer *back;
        Tick latency;
        int remaining;

        void
        fire()
        {
            log.push_back(exec.queue(self).now());
            if (remaining-- <= 0)
                return;
            const Tick when = exec.queue(self).now() + latency;
            Bouncer *other = back;
            exec.post(self, peer, when, [other] { other->fire(); });
        }
    };
    Bouncer ba{exec, a, b, logA, nullptr, latency, 8};
    Bouncer bb{exec, b, a, logB, &ba, latency, 8};
    ba.back = &bb;

    exec.queue(a).schedule(10, [&ba] { ba.fire(); });
    exec.runUntil(5000);

    std::vector<std::pair<int, Tick>> merged;
    for (Tick t : logA)
        merged.emplace_back(0, t);
    for (Tick t : logB)
        merged.emplace_back(1, t);
    return merged;
}

TEST(ShardedExecutor, PingPongIsIdenticalAcrossHostThreadCounts)
{
    const auto one = runPingPong(1);
    const auto two = runPingPong(2);
    const auto four = runPingPong(4);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
}

TEST(ShardedExecutorDeathTest, PostInsideWindowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ShardedExecutor exec(1);
            const DomainId a = exec.addDomain("a");
            const DomainId b = exec.addDomain("b");
            exec.setWindow(100);
            // An event that posts a same-tick (intra-window) event to
            // the other domain: a conservative-window violation.
            exec.queue(a).schedule(10, [&exec, a, b] {
                exec.post(a, b, exec.queue(a).now(), [] {});
            });
            exec.runUntil(1000);
        },
        "conservative window violated");
}

TEST(ShardedExecutor, RunUntilAdvancesIdleDomainsToLimit)
{
    ShardedExecutor exec(1);
    const DomainId a = exec.addDomain("a");
    const DomainId b = exec.addDomain("b");
    exec.setWindow(10);
    exec.queue(a).schedule(500, [] {});
    exec.runUntil(2000);
    // b never had an event; its time base still reaches the limit,
    // mirroring EventQueue::runUntil semantics.
    EXPECT_EQ(exec.queue(a).now(), Tick(2000));
    EXPECT_EQ(exec.queue(b).now(), Tick(2000));
}

} // anonymous namespace
