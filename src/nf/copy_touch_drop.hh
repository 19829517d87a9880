/**
 * @file
 * Copy-mode TouchDrop (paper Sec. II-B, recycling mode M1).
 *
 * The Linux-stack-style consumption model: the packet is copied out
 * of the DMA buffer into an application-owned arena and processed
 * from the copy. The DMA buffer is dead after the copy's first touch
 * — the earliest legal self-invalidation point the paper identifies
 * ("if the RX DMA buffers are copied to a new buffer before
 * processing them, then it is safe to invalidate the cachelines that
 * belong to the DMA buffer after the first touch").
 *
 * Compared to run-to-completion TouchDrop, the copy doubles the
 * CPU-side line traffic (read DMA + write copy + read copy) but
 * shrinks each DMA buffer's use distance to the copy loop.
 */

#ifndef IDIO_NF_COPY_TOUCH_DROP_HH
#define IDIO_NF_COPY_TOUCH_DROP_HH

#include <vector>

#include "mem/phys_alloc.hh"
#include "nf/network_function.hh"

namespace nf
{

/**
 * TouchDrop with copy-mode buffer recycling.
 */
class CopyTouchDrop : public NetworkFunction
{
  public:
    /**
     * @param alloc Allocator for the application copy arena.
     * @param arenaBuffers Copy slots cycled round-robin (bounds the
     *        application working set like a socket buffer pool).
     */
    CopyTouchDrop(sim::Simulation &simulation, const std::string &name,
                  cpu::Core &core, dpdk::RxQueue &rxQueue,
                  const NfConfig &config, bool selfInvalidate,
                  mem::PhysAllocator &alloc,
                  std::uint32_t arenaBuffers = 512);

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  protected:
    sim::Tick processPacket(cpu::Core &c, dpdk::Mbuf &m) override;

    /** The copy loop already invalidated the buffer. */
    bool invalidateOnComplete() const override { return false; }

  private:
    sim::Addr arenaBase;
    std::uint32_t arenaBuffers;
    std::uint32_t nextSlot = 0;
};

} // namespace nf

#endif // IDIO_NF_COPY_TOUCH_DROP_HH
