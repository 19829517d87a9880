/**
 * @file
 * L2Fwd network functions (paper Table II and Sec. VII).
 *
 * L2Fwd is the zero-copy, run-to-completion shallow NF: it inspects
 * and rewrites only the Ethernet header, then transmits the *same* DMA
 * buffer back out (paper Fig. 3, right). The buffer is consumed only
 * when the TX DMA read completes, at which point it is freed (and
 * self-invalidated under IDIO).
 *
 * L2FwdDropPayload is the paper's class-1 variant ("the application
 * drops the payload after processing the header"): only the header
 * cacheline is forwarded, so the payload is never touched by the CPU
 * — the workload that motivates selective direct DRAM access.
 */

#ifndef IDIO_NF_L2FWD_HH
#define IDIO_NF_L2FWD_HH

#include "nf/network_function.hh"

namespace nf
{

/**
 * Zero-copy L2 forwarder.
 */
class L2Fwd : public NetworkFunction
{
  public:
    L2Fwd(sim::Simulation &simulation, const std::string &name,
          cpu::Core &core, dpdk::RxQueue &rxQueue,
          const NfConfig &config, bool selfInvalidate);

    /** Packets whose TX has not completed yet. */
    std::uint32_t inFlightTx() const { return txInFlight; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  protected:
    sim::Tick processPacket(cpu::Core &c, dpdk::Mbuf &m) override;
    bool asyncCompletion() const override { return true; }

    /** Bytes of the frame actually transmitted. */
    virtual std::uint32_t
    txBytes(const dpdk::Mbuf &m) const
    {
        return m.pktBytes;
    }

  private:
    void onTxDone(std::uint32_t mbufIdx);

    std::uint32_t txInFlight = 0;
};

/**
 * Header-forward / payload-drop variant (application class 1).
 */
class L2FwdDropPayload : public L2Fwd
{
  public:
    using L2Fwd::L2Fwd;

  protected:
    std::uint32_t
    txBytes(const dpdk::Mbuf &) const override
    {
        return mem::lineSize; // header cacheline only
    }
};

} // namespace nf

#endif // IDIO_NF_L2FWD_HH
