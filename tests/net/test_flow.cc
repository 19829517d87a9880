/**
 * @file
 * FiveTuple and Toeplitz hash tests, with the bit-serial reference
 * Toeplitz hash the library's sliding-window one is checked against.
 */

#include <gtest/gtest.h>

#include <random>

#include "net/flow.hh"

namespace
{

/**
 * Reference Toeplitz hash, written straight from the definition: for
 * every set bit b of the 96-bit input, XOR in the 32 key bits that
 * start at bit b, each gathered bit by bit. It is slow (about 3,000
 * bit operations per call), which is why the library slides one key
 * window instead; the tests below hold the two to the same answers.
 */
std::uint32_t
referenceToeplitz(const net::FiveTuple &tuple, const std::uint8_t *key)
{
    const auto bitAt = [](const std::uint8_t *bytes, int b) {
        return (bytes[b / 8] >> (7 - (b % 8))) & 1;
    };
    const std::uint8_t input[12] = {
        static_cast<std::uint8_t>(tuple.srcIp >> 24),
        static_cast<std::uint8_t>(tuple.srcIp >> 16),
        static_cast<std::uint8_t>(tuple.srcIp >> 8),
        static_cast<std::uint8_t>(tuple.srcIp),
        static_cast<std::uint8_t>(tuple.dstIp >> 24),
        static_cast<std::uint8_t>(tuple.dstIp >> 16),
        static_cast<std::uint8_t>(tuple.dstIp >> 8),
        static_cast<std::uint8_t>(tuple.dstIp),
        static_cast<std::uint8_t>(tuple.srcPort >> 8),
        static_cast<std::uint8_t>(tuple.srcPort),
        static_cast<std::uint8_t>(tuple.dstPort >> 8),
        static_cast<std::uint8_t>(tuple.dstPort),
    };
    std::uint32_t result = 0;
    for (int b = 0; b < 96; ++b) {
        if (!bitAt(input, b))
            continue;
        std::uint32_t window = 0;
        for (int i = 0; i < 32; ++i)
            window = (window << 1) | std::uint32_t(bitAt(key, b + i));
        result ^= window;
    }
    return result;
}

constexpr std::uint32_t
ipv4(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d)
{
    return (a << 24) | (b << 16) | (c << 8) | d;
}

net::FiveTuple
tuple(std::uint32_t srcIp, std::uint16_t srcPort, std::uint32_t dstIp,
      std::uint16_t dstPort)
{
    net::FiveTuple t;
    t.srcIp = srcIp;
    t.dstIp = dstIp;
    t.srcPort = srcPort;
    t.dstPort = dstPort;
    return t;
}

TEST(Toeplitz, KnownVectors)
{
    // Microsoft RSS verification suite, IPv4 with ports, default key.
    struct Vector
    {
        net::FiveTuple tuple;
        std::uint32_t hash;
    };
    const Vector vectors[] = {
        {tuple(ipv4(66, 9, 149, 187), 2794, ipv4(161, 142, 100, 80),
               1766),
         0x51ccc178u},
        {tuple(ipv4(199, 92, 111, 2), 14230, ipv4(65, 69, 140, 83),
               4739),
         0xc626b0eau},
        {tuple(ipv4(24, 19, 198, 95), 12898, ipv4(12, 22, 207, 184),
               38024),
         0x5c2b394au},
        {tuple(ipv4(38, 27, 205, 30), 48228, ipv4(209, 142, 163, 6),
               2217),
         0xafc7327fu},
        {tuple(ipv4(153, 39, 163, 191), 44251, ipv4(202, 188, 127, 2),
               1303),
         0x10e828a2u},
    };
    for (const auto &v : vectors) {
        EXPECT_EQ(net::toeplitzHash(v.tuple), v.hash);
        EXPECT_EQ(referenceToeplitz(v.tuple, net::defaultRssKey), v.hash);
    }
}

TEST(Toeplitz, MatchesReferenceOnRandomTuples)
{
    // A second, random key exercises every key bit position rather
    // than just the pattern of the Microsoft key.
    std::mt19937_64 rng(0x70e9117a);
    std::uint8_t randomKey[40];
    for (auto &byte : randomKey)
        byte = static_cast<std::uint8_t>(rng());

    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t r = rng();
        const auto t = tuple(static_cast<std::uint32_t>(r),
                             static_cast<std::uint16_t>(rng()),
                             static_cast<std::uint32_t>(r >> 32),
                             static_cast<std::uint16_t>(rng()));
        ASSERT_EQ(net::toeplitzHash(t),
                  referenceToeplitz(t, net::defaultRssKey))
            << "default key, tuple " << i;
        ASSERT_EQ(net::toeplitzHash(t, randomKey),
                  referenceToeplitz(t, randomKey))
            << "random key, tuple " << i;
    }
}

TEST(Toeplitz, Deterministic)
{
    net::FiveTuple t;
    t.srcIp = 0x01020304;
    t.dstIp = 0x05060708;
    t.srcPort = 1;
    t.dstPort = 2;
    EXPECT_EQ(net::toeplitzHash(t), net::toeplitzHash(t));
}

TEST(Toeplitz, SensitiveToEveryField)
{
    net::FiveTuple base;
    base.srcIp = 0x0a000001;
    base.dstIp = 0x0a000002;
    base.srcPort = 1000;
    base.dstPort = 2000;
    const auto h = net::toeplitzHash(base);

    auto t = base;
    t.srcIp ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
    t = base;
    t.dstIp ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
    t = base;
    t.srcPort ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
    t = base;
    t.dstPort ^= 1;
    EXPECT_NE(net::toeplitzHash(t), h);
}

TEST(FiveTuple, EqualityAndHash)
{
    net::FiveTuple a, b;
    a.srcIp = b.srcIp = 5;
    a.dstPort = b.dstPort = 7;
    EXPECT_EQ(a, b);
    EXPECT_EQ(net::FiveTupleHash{}(a), net::FiveTupleHash{}(b));
    b.srcPort = 9;
    EXPECT_NE(a, b);
}

} // anonymous namespace
