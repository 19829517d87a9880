/**
 * @file
 * Checkpoint files the benches write with --checkpoint and read with
 * --restore: the blob plus its FILE.meta loop-state sidecar. The
 * sidecar is required and strictly parsed, because a resumed run
 * without it reports a different execTime.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common.hh"

namespace
{

/** A fresh path under the gtest temp dir; removed with its sidecar. */
class WarmStateFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "warm_state_" + info->name() +
               ".ckpt";
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
        std::remove((path + ".meta").c_str());
    }

    /** Save a small state, then overwrite its sidecar with @p meta. */
    void
    saveWithMeta(const std::string &meta)
    {
        bench::WarmState w;
        w.blob = {1, 2, 3};
        bench::saveWarmState(path, w);
        std::ofstream(path + ".meta") << meta;
    }

    std::string path;
};

TEST_F(WarmStateFile, SaveLoadRoundTrip)
{
    bench::WarmState w;
    w.blob = {0, 7, 255, 42};
    w.firstArrival = 1'234'567;
    w.sawFirst = true;
    bench::saveWarmState(path, w);

    const bench::WarmState r = bench::loadWarmState(path);
    EXPECT_EQ(r.blob, w.blob);
    EXPECT_EQ(r.firstArrival, w.firstArrival);
    EXPECT_TRUE(r.sawFirst);
}

TEST_F(WarmStateFile, MissingSidecarIsFatal)
{
    saveWithMeta("");
    std::remove((path + ".meta").c_str());
    EXPECT_EXIT(bench::loadWarmState(path), ::testing::ExitedWithCode(1),
                "cannot read checkpoint meta '.*\\.meta'");
}

TEST_F(WarmStateFile, UnknownKeyIsFatal)
{
    saveWithMeta("firstArrival=5\nsawFirst=1\nlastArrival=9\n");
    EXPECT_EXIT(bench::loadWarmState(path), ::testing::ExitedWithCode(1),
                "\\.meta:3: unknown checkpoint meta line 'lastArrival=9'");
}

TEST_F(WarmStateFile, NonNumericFirstArrivalIsFatal)
{
    saveWithMeta("firstArrival=12us\nsawFirst=1\n");
    EXPECT_EXIT(bench::loadWarmState(path), ::testing::ExitedWithCode(1),
                "\\.meta:1: firstArrival '12us' is not a tick count");
}

TEST_F(WarmStateFile, SawFirstOtherThanZeroOrOneIsFatal)
{
    saveWithMeta("firstArrival=5\nsawFirst=yes\n");
    EXPECT_EXIT(bench::loadWarmState(path), ::testing::ExitedWithCode(1),
                "\\.meta:2: sawFirst 'yes' is not 0 or 1");
}

TEST_F(WarmStateFile, MissingKeyIsFatal)
{
    saveWithMeta("firstArrival=5\n");
    EXPECT_EXIT(bench::loadWarmState(path), ::testing::ExitedWithCode(1),
                "\\.meta: missing sawFirst");
}

} // anonymous namespace
