/**
 * @file
 * Cache replacement policies.
 *
 * Policies operate per set and support *masked* victim selection: the
 * LLC restricts DDIO write-allocations to the DDIO ways and (for the
 * Fig. 4 `*_1way` experiments) CPU allocations to a way-partition mask,
 * so a victim must be selected among an arbitrary subset of ways.
 */

#ifndef IDIO_CACHE_REPLACEMENT_HH
#define IDIO_CACHE_REPLACEMENT_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace ckpt
{
class Serializer;
class Deserializer;
}

namespace cache
{

/** Bitmask over the ways of one set (bit i = way i eligible). */
using WayMask = std::uint64_t;

/** Mask with the low @p n bits set. */
constexpr WayMask
lowWays(std::uint32_t n)
{
    return n >= 64 ? ~WayMask(0) : ((WayMask(1) << n) - 1);
}

/**
 * Concrete policy identity, so hot paths can devirtualize dispatch to
 * the common policy (see TagArray): callers compare kind() once at
 * construction and cache a concrete pointer instead of paying an
 * indirect call per touch/victim.
 */
enum class ReplKind
{
    Lru,
    Random,
    Srrip,
    Other,
};

/**
 * Abstract replacement policy.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Concrete kind, for devirtualized hot-path dispatch. */
    virtual ReplKind kind() const { return ReplKind::Other; }

    /**
     * Size the internal state.
     * @param numSets Sets in the array.
     * @param assoc Ways per set.
     */
    virtual void init(std::uint32_t numSets, std::uint32_t assoc) = 0;

    /** Record a use (hit or fill) of (set, way). */
    virtual void touch(std::uint32_t set, std::uint32_t way) = 0;

    /**
     * Record @p n uses of (set, way) in a row; the state ends as
     * after @p n touch() calls. Policies override the loop with a
     * closed form.
     */
    virtual void
    touchRepeat(std::uint32_t set, std::uint32_t way, std::uint64_t n)
    {
        for (; n > 0; --n)
            touch(set, way);
    }

    /** Record a brand-new fill of (set, way). */
    virtual void
    fill(std::uint32_t set, std::uint32_t way)
    {
        touch(set, way);
    }

    /**
     * Choose a victim among the ways selected by @p candidates.
     * @p candidates is never 0.
     */
    virtual std::uint32_t victim(std::uint32_t set,
                                 WayMask candidates) = 0;

    /** Policy name for configuration echo. */
    virtual std::string name() const = 0;

    /** @{ Checkpoint the policy's dynamic state (default: none). */
    virtual void serialize(ckpt::Serializer &) const {}
    virtual void unserialize(ckpt::Deserializer &) {}
    /** @} */
};

/**
 * Least-recently-used via per-way 64-bit use stamps.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    ReplKind kind() const override { return ReplKind::Lru; }
    void init(std::uint32_t numSets, std::uint32_t assoc) override;
    void touch(std::uint32_t set, std::uint32_t way) override
    {
        touchFast(set, way);
    }
    void
    touchRepeat(std::uint32_t set, std::uint32_t way,
                std::uint64_t n) override
    {
        touchRepeatFast(set, way, n);
    }
    std::uint32_t victim(std::uint32_t set, WayMask candidates) override
    {
        return victimFast(set, candidates);
    }
    std::string name() const override { return "lru"; }

    /** @{ Non-virtual fast paths used by TagArray's devirtualized
     * dispatch (semantics identical to the virtual entry points). */
    void
    touchFast(std::uint32_t set, std::uint32_t way)
    {
        stamps[std::size_t(set) * assoc + way] = ++clock;
    }

    /** n touches: the clock advances n, the way keeps the last. */
    void
    touchRepeatFast(std::uint32_t set, std::uint32_t way,
                    std::uint64_t n)
    {
        if (n == 0)
            return;
        clock += n;
        stamps[std::size_t(set) * assoc + way] = clock;
    }

    std::uint32_t
    victimFast(std::uint32_t set, WayMask candidates) const
    {
        SIM_ASSERT(candidates != 0, "empty candidate mask");
        const std::uint64_t *s = &stamps[std::size_t(set) * assoc];
        // Iterate candidate bits only; strict < keeps the lowest
        // eligible way among equal stamps (any deterministic rule
        // works, but this matches the historical scan order).
        std::uint32_t best =
            static_cast<std::uint32_t>(std::countr_zero(candidates));
        std::uint64_t bestStamp = ~std::uint64_t(0);
        for (WayMask m = candidates; m != 0; m &= m - 1) {
            const auto w =
                static_cast<std::uint32_t>(std::countr_zero(m));
            if (s[w] < bestStamp) {
                bestStamp = s[w];
                best = w;
            }
        }
        return best;
    }
    /** @} */

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    std::uint32_t assoc = 0;
    std::uint64_t clock = 0;
    std::vector<std::uint64_t> stamps; // numSets * assoc
};

/**
 * Uniform random victim among candidates (deterministic seeded RNG).
 */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 7) : rng(seed) {}

    ReplKind kind() const override { return ReplKind::Random; }
    void init(std::uint32_t numSets, std::uint32_t assoc) override;
    void touch(std::uint32_t, std::uint32_t) override {}
    void touchRepeat(std::uint32_t, std::uint32_t, std::uint64_t) override
    {
    }
    std::uint32_t victim(std::uint32_t set, WayMask candidates) override;
    std::string name() const override { return "random"; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    sim::Rng rng;
    std::uint32_t assoc = 0;
};

/**
 * Static re-reference interval prediction (SRRIP-HP, 2-bit RRPV).
 * Useful as an ablation against LRU in the LLC; DMA-bloating behaviour
 * is replacement-policy independent and the benches default to LRU.
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    explicit SrripPolicy(std::uint8_t bits = 2) : maxRrpv((1u << bits) - 1)
    {
    }

    ReplKind kind() const override { return ReplKind::Srrip; }
    void init(std::uint32_t numSets, std::uint32_t assoc) override;
    void touch(std::uint32_t set, std::uint32_t way) override;
    /** A touch resets the way's RRPV to 0: repeats change nothing. */
    void
    touchRepeat(std::uint32_t set, std::uint32_t way,
                std::uint64_t n) override
    {
        if (n > 0)
            touch(set, way);
    }
    void fill(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, WayMask candidates) override;
    std::string name() const override { return "srrip"; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    std::uint32_t maxRrpv;
    std::uint32_t assoc = 0;
    std::vector<std::uint8_t> rrpv; // numSets * assoc
};

/** Factory from a policy name ("lru", "random", "srrip"). */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const std::string &name, std::uint64_t seed = 7);

} // namespace cache

#endif // IDIO_CACHE_REPLACEMENT_HH
