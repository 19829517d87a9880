/**
 * @file
 * Versioned, sectioned binary checkpoint serialization.
 *
 * A checkpoint is a flat blob of named sections, one per SimObject
 * (keyed by SimObject::name()) plus a few reserved pseudo-sections
 * ("_eventq", "_rootRng", "_stats", "_tracer") written by the
 * ckpt::save() orchestrator. Truncation and schema drift fail loudly:
 * every section carries its own version, length and FNV-1a checksum,
 * and Deserializer::endSection() verifies the reader consumed the
 * payload exactly.
 *
 * Blob layout (all integers little-endian, no padding):
 *
 *   header:
 *     char[8]  magic          "IDIOCKPT"
 *     u32      formatVersion  (ckpt::formatVersion)
 *     u64      seed           (root simulation seed)
 *     u64      tick           (simulated time of the checkpoint)
 *     u32      sectionCount
 *   sectionCount x section:
 *     u32      nameLen
 *     char[n]  name
 *     u32      version        (per-section schema version)
 *     u64      payloadLen
 *     u64      checksum       (FNV-1a 64 over the payload bytes)
 *     u8[len]  payload
 *
 * Pending one-shot events cannot be serialized as raw callables;
 * instead each owner records enough state to re-create its own
 * callbacks and, on restore, re-registers them through
 * Deserializer::deferOneShot()/deferEvent(). The deferred schedules
 * are replayed in original-sequence order so same-tick events fire in
 * exactly the order the uninterrupted run would have used.
 */

#ifndef IDIO_CKPT_SERIALIZER_HH
#define IDIO_CKPT_SERIALIZER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sim
{
class Event;
class EventQueue;
}

namespace ckpt
{

/**
 * Whole-file format version; bumped on any layout change.
 * v3: _eventq sections carry the scheduler backend tag, the timing-
 * wheel base tick and the wheel geometry (levels, slot bits), and
 * link-channel sections store batched delivery records.
 * v4: _eventq sections (section version 3) drop the backend tag; the
 * timing wheel is the only scheduler. Section version 4 also drops
 * the events-since-last-hook counter (the section is versioned on
 * its own, so the file format stays v4).
 */
constexpr std::uint32_t formatVersion = 4;

/** File magic, first 8 bytes of every checkpoint. */
constexpr std::array<char, 8> magic = {'I', 'D', 'I', 'O',
                                       'C', 'K', 'P', 'T'};

/** FNV-1a 64-bit checksum over a byte range. */
std::uint64_t fnv1a(const void *data, std::size_t n);

/**
 * Builds a checkpoint blob section by section. Writers open a section,
 * append typed fields, and close it; finish() assembles the blob with
 * the header and per-section checksums.
 */
class Serializer
{
  public:
    Serializer() = default;
    Serializer(const Serializer &) = delete;
    Serializer &operator=(const Serializer &) = delete;

    /**
     * Open a new section. Section names must be unique within one
     * checkpoint (they key the restore lookup); duplicates panic.
     */
    void beginSection(const std::string &name,
                      std::uint32_t version = 1);

    /** Close the currently open section. */
    void endSection();

    /** @{ Typed field writers (only valid inside a section). */
    void writeBytes(const void *data, std::size_t n);

    void writeU8(std::uint8_t v) { writeBytes(&v, sizeof(v)); }
    void writeU16(std::uint16_t v) { writeBytes(&v, sizeof(v)); }
    void writeU32(std::uint32_t v) { writeBytes(&v, sizeof(v)); }
    void writeU64(std::uint64_t v) { writeBytes(&v, sizeof(v)); }
    void writeBool(bool v) { writeU8(v ? 1 : 0); }
    void writeTick(sim::Tick t) { writeU64(t); }

    void
    writeDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        writeU64(bits);
    }

    void
    writeString(const std::string &s)
    {
        writeU32(static_cast<std::uint32_t>(s.size()));
        writeBytes(s.data(), s.size());
    }

    /** Length-prefixed vector of trivially copyable elements. */
    template <typename T>
    void
    writePodVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "writePodVec requires a trivially copyable T");
        writeU64(v.size());
        if (!v.empty())
            writeBytes(v.data(), v.size() * sizeof(T));
    }

    /** vector<bool> (bit-packed in memory) as one byte per element. */
    void writeBoolVec(const std::vector<bool> &v);
    /** @} */

    /** Assemble the final blob (header + all closed sections). */
    std::vector<std::uint8_t> finish(std::uint64_t seed,
                                     sim::Tick tick);

  private:
    struct Section
    {
        std::string name;
        std::uint32_t version;
        std::vector<std::uint8_t> payload;
    };

    std::vector<Section> sections;
    bool open = false;
};

/**
 * Reads a checkpoint blob. The constructor validates the magic, the
 * format version and every section checksum eagerly, so a truncated
 * or corrupted file fails before any state is touched.
 */
class Deserializer
{
  public:
    explicit Deserializer(const std::vector<std::uint8_t> &blob);
    Deserializer(const Deserializer &) = delete;
    Deserializer &operator=(const Deserializer &) = delete;

    /** @{ Header accessors. */
    std::uint64_t seed() const { return hdrSeed; }
    sim::Tick tick() const { return hdrTick; }
    /** @} */

    bool hasSection(const std::string &name) const;

    /**
     * Open a section for reading and return its schema version.
     * Fatal when the section is absent (model/checkpoint drift).
     */
    std::uint32_t beginSection(const std::string &name);

    /**
     * Close the current section; fatal unless the reader consumed the
     * payload exactly (partial consumption means schema drift).
     */
    void endSection();

    /** @{ Typed field readers (mirror the Serializer writers). */
    void readBytes(void *out, std::size_t n);

    std::uint8_t
    readU8()
    {
        std::uint8_t v;
        readBytes(&v, sizeof(v));
        return v;
    }

    std::uint16_t
    readU16()
    {
        std::uint16_t v;
        readBytes(&v, sizeof(v));
        return v;
    }

    std::uint32_t
    readU32()
    {
        std::uint32_t v;
        readBytes(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    readU64()
    {
        std::uint64_t v;
        readBytes(&v, sizeof(v));
        return v;
    }

    bool readBool() { return readU8() != 0; }
    sim::Tick readTick() { return readU64(); }

    double
    readDouble()
    {
        const std::uint64_t bits = readU64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string readString();

    template <typename T>
    std::vector<T>
    readPodVec()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "readPodVec requires a trivially copyable T");
        const std::uint64_t n = readU64();
        std::vector<T> v(static_cast<std::size_t>(n));
        if (n)
            readBytes(v.data(), v.size() * sizeof(T));
        return v;
    }

    std::vector<bool> readBoolVec();
    /** @} */

    /**
     * @{ Deferred event re-registration. unserialize() implementations
     * cannot schedule directly — relative ordering of same-tick events
     * must match the checkpointed sequence numbers, which requires a
     * globally sorted replay. Owners register their pending events
     * here; ckpt::restore() replays them in @p origSeq order.
     */
    void deferOneShot(std::uint64_t origSeq, sim::Tick when,
                      std::function<void()> fn);
    void deferEvent(std::uint64_t origSeq, sim::Tick when,
                    sim::Event *ev);

    /** Replay all deferred schedules in original-sequence order. */
    void applyDeferred(sim::EventQueue &eq);
    /** @} */

  private:
    struct Section
    {
        std::string name;
        std::uint32_t version;
        std::vector<std::uint8_t> payload;
    };

    struct Deferred
    {
        std::uint64_t origSeq;
        sim::Tick when;
        std::function<void()> fn; // empty => reschedulable `ev`
        sim::Event *ev;
    };

    const Section *findSection(const std::string &name) const;

    std::uint64_t hdrSeed = 0;
    sim::Tick hdrTick = 0;
    std::vector<Section> sections;
    const Section *cur = nullptr;
    std::size_t cursor = 0;
    std::vector<Deferred> deferred;
};

/**
 * @{ Helpers for member (reschedulable) events — PeriodicEvents, pump
 * and step events, and the like. serializeEvent() records
 * {scheduled, when, seq}; unserializeEvent() defers a reschedule of
 * the same Event object when it was pending at checkpoint time.
 */
void serializeEvent(Serializer &s, const sim::Event &ev);
void unserializeEvent(Deserializer &d, sim::Event *ev);
/** @} */

} // namespace ckpt

#endif // IDIO_CKPT_SERIALIZER_HH
