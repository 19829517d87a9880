/**
 * @file
 * Flow identification and RSS/Flow-Director hashing.
 */

#ifndef IDIO_NET_FLOW_HH
#define IDIO_NET_FLOW_HH

#include <cstdint>

#include "net/headers.hh"

namespace net
{

/**
 * Canonical 5-tuple identifying a flow.
 */
struct FiveTuple
{
    std::uint32_t srcIp = 0;
    std::uint32_t dstIp = 0;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    IpProto proto = IpProto::Udp;

    bool operator==(const FiveTuple &) const = default;
};

/**
 * Toeplitz hash over the 5-tuple, as used by RSS and Flow Director's
 * signature filters. @p key must provide at least 40 bytes.
 */
std::uint32_t toeplitzHash(const FiveTuple &tuple,
                           const std::uint8_t *key);

/** The default Microsoft RSS key. */
extern const std::uint8_t defaultRssKey[40];

/** Toeplitz hash with the default key. */
std::uint32_t toeplitzHash(const FiveTuple &tuple);

} // namespace net

#endif // IDIO_NET_FLOW_HH
