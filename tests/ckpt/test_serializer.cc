/**
 * @file
 * Serializer/Deserializer format tests: typed-field round-trips,
 * header metadata, and the loud-failure paths (truncation, checksum
 * corruption, magic/version drift, missing sections, partial
 * consumption, trailing bytes).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "sim/event_queue.hh"

#include "../sim/callback_event.hh"

namespace
{

std::vector<std::uint8_t>
sampleBlob(std::uint64_t seed = 7, sim::Tick tick = 1234)
{
    ckpt::Serializer s;
    s.beginSection("alpha", 3);
    s.writeU8(0x12);
    s.writeU16(0x3456);
    s.writeU32(0x789abcde);
    s.writeU64(0x0123456789abcdefull);
    s.writeBool(true);
    s.writeTick(42);
    s.writeDouble(3.25);
    s.writeString("hello ckpt");
    s.endSection();

    s.beginSection("beta");
    s.writePodVec(std::vector<std::uint32_t>{1, 2, 3, 5, 8});
    s.writeBoolVec({true, false, true});
    s.endSection();

    return s.finish(seed, tick);
}

TEST(CkptSerializer, TypedFieldsRoundTrip)
{
    const auto blob = sampleBlob();
    ckpt::Deserializer d(blob);

    EXPECT_EQ(d.seed(), 7u);
    EXPECT_EQ(d.tick(), 1234u);
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_TRUE(d.hasSection("beta"));
    EXPECT_FALSE(d.hasSection("gamma"));

    EXPECT_EQ(d.beginSection("alpha"), 3u);
    EXPECT_EQ(d.readU8(), 0x12);
    EXPECT_EQ(d.readU16(), 0x3456);
    EXPECT_EQ(d.readU32(), 0x789abcdeu);
    EXPECT_EQ(d.readU64(), 0x0123456789abcdefull);
    EXPECT_TRUE(d.readBool());
    EXPECT_EQ(d.readTick(), 42u);
    EXPECT_DOUBLE_EQ(d.readDouble(), 3.25);
    EXPECT_EQ(d.readString(), "hello ckpt");
    d.endSection();

    EXPECT_EQ(d.beginSection("beta"), 1u);
    const auto vec = d.readPodVec<std::uint32_t>();
    EXPECT_EQ(vec, (std::vector<std::uint32_t>{1, 2, 3, 5, 8}));
    const auto bits = d.readBoolVec();
    EXPECT_EQ(bits, (std::vector<bool>{true, false, true}));
    d.endSection();
}

TEST(CkptSerializer, SectionsReadableInAnyOrder)
{
    const auto blob = sampleBlob();
    ckpt::Deserializer d(blob);
    EXPECT_EQ(d.beginSection("beta"), 1u);
    (void)d.readPodVec<std::uint32_t>();
    (void)d.readBoolVec();
    d.endSection();
    EXPECT_EQ(d.beginSection("alpha"), 3u);
}

TEST(CkptSerializer, TruncationIsFatal)
{
    auto blob = sampleBlob();
    blob.resize(blob.size() - 1);
    EXPECT_EXIT(ckpt::Deserializer d(blob),
                ::testing::ExitedWithCode(1), "");
}

TEST(CkptSerializer, ChecksumCorruptionIsFatal)
{
    auto blob = sampleBlob();
    blob.back() ^= 0xff; // last payload byte of the last section
    EXPECT_EXIT(ckpt::Deserializer d(blob),
                ::testing::ExitedWithCode(1), "checksum");
}

TEST(CkptSerializer, BadMagicIsFatal)
{
    auto blob = sampleBlob();
    blob[0] = 'X';
    EXPECT_EXIT(ckpt::Deserializer d(blob),
                ::testing::ExitedWithCode(1), "magic");
}

TEST(CkptSerializer, FormatVersionDriftIsFatal)
{
    // A newer file and one from the previous format (v4, which wrote
    // every cache slot) are both refused.
    for (const std::uint32_t bogus :
         {ckpt::formatVersion + 1, ckpt::formatVersion - 1}) {
        auto blob = sampleBlob();
        std::memcpy(blob.data() + 8, &bogus, sizeof(bogus));
        EXPECT_EXIT(ckpt::Deserializer d(blob),
                    ::testing::ExitedWithCode(1), "version")
            << "formatVersion " << bogus;
    }
}

TEST(CkptSerializer, TrailingBytesAreFatal)
{
    auto blob = sampleBlob();
    blob.push_back(0);
    EXPECT_EXIT(ckpt::Deserializer d(blob),
                ::testing::ExitedWithCode(1), "");
}

TEST(CkptSerializer, MissingSectionIsFatal)
{
    const auto blob = sampleBlob();
    ckpt::Deserializer d(blob);
    EXPECT_EXIT(d.beginSection("gamma"),
                ::testing::ExitedWithCode(1), "");
}

TEST(CkptSerializer, PartialConsumptionIsFatal)
{
    const auto blob = sampleBlob();
    ckpt::Deserializer d(blob);
    d.beginSection("alpha");
    (void)d.readU8(); // leave the rest unread
    EXPECT_EXIT(d.endSection(), ::testing::ExitedWithCode(1), "");
}

TEST(CkptSerializer, OverreadIsFatal)
{
    ckpt::Serializer s;
    s.beginSection("tiny");
    s.writeU8(1);
    s.endSection();
    const auto blob = s.finish(0, 0);

    ckpt::Deserializer d(blob);
    d.beginSection("tiny");
    (void)d.readU8();
    EXPECT_EXIT((void)d.readU32(), ::testing::ExitedWithCode(1), "");
}

TEST(CkptSerializer, FnvMatchesKnownVector)
{
    // FNV-1a 64 reference value for the empty string.
    EXPECT_EQ(ckpt::fnv1a("", 0), 0xcbf29ce484222325ull);
}

TEST(CkptSerializer, DeferredReplayFollowsOriginalSequence)
{
    // Two same-tick events registered in reverse sequence order must
    // still fire in original-sequence order after replay.
    const auto blob = sampleBlob();
    ckpt::Deserializer d(blob);

    std::vector<int> fired;
    simtest::CallbackEvent nine([&] { fired.push_back(9); });
    simtest::CallbackEvent two([&] { fired.push_back(2); });
    d.deferEvent(9, 100, &nine);
    d.deferEvent(2, 100, &two);

    sim::EventQueue eq;
    d.applyDeferred(eq);
    eq.runUntil(200);

    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 2);
    EXPECT_EQ(fired[1], 9);
}

} // anonymous namespace
