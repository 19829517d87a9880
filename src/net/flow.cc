/**
 * @file
 * Toeplitz hashing.
 */

#include "flow.hh"

namespace net
{

// Microsoft's canonical RSS key (40 bytes).
const std::uint8_t defaultRssKey[40] = {
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
    0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
    0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
};

std::uint32_t
toeplitzHash(const FiveTuple &tuple, const std::uint8_t *key)
{
    // Standard IPv4-with-ports RSS input: srcIp | dstIp | srcPort |
    // dstPort, 12 bytes big-endian. The protocol byte is not hashed.
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

    // Input bit b (MSB first) selects the 32 key bits starting at bit
    // b. Keep that window in a register: XOR it in when the input bit
    // is set, then slide it left by one, shifting in key bit b + 32.
    std::uint32_t window = std::uint32_t(key[0]) << 24 |
                           std::uint32_t(key[1]) << 16 |
                           std::uint32_t(key[2]) << 8 | key[3];
    std::uint32_t result = 0;
    for (int i = 0; i < 12; ++i) {
        for (int bit = 7; bit >= 0; --bit) {
            if ((input[i] >> bit) & 1)
                result ^= window;
            window = (window << 1) | ((key[i + 4] >> bit) & 1);
        }
    }
    return result;
}

std::uint32_t
toeplitzHash(const FiveTuple &tuple)
{
    return toeplitzHash(tuple, defaultRssKey);
}

} // namespace net
