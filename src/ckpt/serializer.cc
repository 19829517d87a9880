/**
 * @file
 * Checkpoint Serializer/Deserializer implementation.
 */

#include "serializer.hh"

#include <algorithm>

#include "sim/event_queue.hh"

namespace ckpt
{

std::uint64_t
fnv1a(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

void
Serializer::beginSection(const std::string &name, std::uint32_t version)
{
    if (open)
        sim::panic("ckpt: beginSection('%s') with a section still open",
                   name.c_str());
    for (const Section &s : sections) {
        if (s.name == name)
            sim::panic("ckpt: duplicate section name '%s'",
                       name.c_str());
    }
    sections.push_back(Section{name, version, {}});
    open = true;
}

void
Serializer::endSection()
{
    if (!open)
        sim::panic("ckpt: endSection() without an open section");
    open = false;
}

void
Serializer::writeBytes(const void *data, std::size_t n)
{
    if (!open)
        sim::panic("ckpt: write outside a section");
    if (n == 0)
        return;
    auto &payload = sections.back().payload;
    const auto *p = static_cast<const std::uint8_t *>(data);
    payload.insert(payload.end(), p, p + n);
}

void
Serializer::writeBoolVec(const std::vector<bool> &v)
{
    writeU64(v.size());
    for (const bool b : v)
        writeU8(b ? 1 : 0);
}

std::vector<std::uint8_t>
Serializer::finish(std::uint64_t seed, sim::Tick tick)
{
    if (open)
        sim::panic("ckpt: finish() with a section still open");

    // Size the blob up front so it is allocated once and never
    // regrows. Header: magic, format version, seed, tick, section
    // count; each section: name length, name, version, payload
    // length, checksum, payload.
    std::size_t bytes = magic.size() + 4 + 8 + 8 + 4;
    for (const Section &s : sections)
        bytes += 4 + s.name.size() + 4 + 8 + 8 + s.payload.size();
    std::vector<std::uint8_t> out(bytes);
    std::size_t pos = 0;
    const auto put = [&out, &pos](const void *data, std::size_t n) {
        SIM_ASSERT(pos + n <= out.size(), "ckpt: blob size miscounted");
        if (n != 0) // empty vectors hand us data == nullptr
            std::memcpy(out.data() + pos, data, n);
        pos += n;
    };
    const auto putInt = [&put](auto v) { put(&v, sizeof(v)); };

    put(magic.data(), magic.size());
    putInt(std::uint32_t(formatVersion));
    putInt(std::uint64_t(seed));
    putInt(std::uint64_t(tick));
    putInt(static_cast<std::uint32_t>(sections.size()));
    for (const Section &s : sections) {
        putInt(static_cast<std::uint32_t>(s.name.size()));
        put(s.name.data(), s.name.size());
        putInt(std::uint32_t(s.version));
        putInt(std::uint64_t(s.payload.size()));
        putInt(fnv1a(s.payload.data(), s.payload.size()));
        put(s.payload.data(), s.payload.size());
    }
    SIM_ASSERT(pos == out.size(), "ckpt: blob size miscounted");
    return out;
}

namespace
{

/** Bounds-checked little reader over the raw blob. */
class BlobReader
{
  public:
    BlobReader(const std::vector<std::uint8_t> &blob) : blob(blob) {}

    void
    read(void *out, std::size_t n)
    {
        if (pos + n > blob.size())
            sim::fatal("ckpt: truncated checkpoint (need %zu bytes at "
                       "offset %zu, have %zu)",
                       n, pos, blob.size());
        if (n != 0) // empty vectors hand us out == nullptr
            std::memcpy(out, blob.data() + pos, n);
        pos += n;
    }

    template <typename T>
    T
    readInt()
    {
        T v;
        read(&v, sizeof(v));
        return v;
    }

    std::string
    readString(std::size_t n)
    {
        std::string s(n, '\0');
        read(s.data(), n);
        return s;
    }

    std::size_t position() const { return pos; }
    bool atEnd() const { return pos == blob.size(); }

  private:
    const std::vector<std::uint8_t> &blob;
    std::size_t pos = 0;
};

} // anonymous namespace

Deserializer::Deserializer(const std::vector<std::uint8_t> &blob)
{
    BlobReader r(blob);

    std::array<char, 8> m;
    r.read(m.data(), m.size());
    if (m != magic)
        sim::fatal("ckpt: bad magic (not a checkpoint file)");

    const std::uint32_t version = r.readInt<std::uint32_t>();
    if (version != formatVersion)
        sim::fatal("ckpt: format version mismatch (file %u, "
                   "simulator %u); re-create the checkpoint with this "
                   "build",
                   version, formatVersion);

    hdrSeed = r.readInt<std::uint64_t>();
    hdrTick = r.readInt<std::uint64_t>();
    const std::uint32_t count = r.readInt<std::uint32_t>();

    sections.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        const std::uint32_t nameLen = r.readInt<std::uint32_t>();
        s.name = r.readString(nameLen);
        s.version = r.readInt<std::uint32_t>();
        const std::uint64_t payloadLen = r.readInt<std::uint64_t>();
        const std::uint64_t checksum = r.readInt<std::uint64_t>();
        s.payload.resize(static_cast<std::size_t>(payloadLen));
        r.read(s.payload.data(), s.payload.size());
        const std::uint64_t actual =
            fnv1a(s.payload.data(), s.payload.size());
        if (actual != checksum)
            sim::fatal("ckpt: checksum mismatch in section '%s' "
                       "(stored %016llx, computed %016llx)",
                       s.name.c_str(), (unsigned long long)checksum,
                       (unsigned long long)actual);
        if (findSection(s.name))
            sim::fatal("ckpt: duplicate section '%s'", s.name.c_str());
        sections.push_back(std::move(s));
    }

    if (!r.atEnd())
        sim::fatal("ckpt: %zu trailing bytes after the last section",
                   blob.size() - r.position());
}

const Deserializer::Section *
Deserializer::findSection(const std::string &name) const
{
    for (const Section &s : sections) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

bool
Deserializer::hasSection(const std::string &name) const
{
    return findSection(name) != nullptr;
}

std::uint32_t
Deserializer::beginSection(const std::string &name)
{
    if (cur)
        sim::panic("ckpt: beginSection('%s') with '%s' still open",
                   name.c_str(), cur->name.c_str());
    cur = findSection(name);
    if (!cur)
        sim::fatal("ckpt: checkpoint has no section '%s' "
                   "(model/checkpoint drift)",
                   name.c_str());
    cursor = 0;
    return cur->version;
}

void
Deserializer::endSection()
{
    if (!cur)
        sim::panic("ckpt: endSection() without an open section");
    if (cursor != cur->payload.size())
        sim::fatal("ckpt: section '%s' only partially consumed "
                   "(%zu of %zu bytes; schema drift)",
                   cur->name.c_str(), cursor, cur->payload.size());
    cur = nullptr;
}

void
Deserializer::readBytes(void *out, std::size_t n)
{
    if (!cur)
        sim::panic("ckpt: read outside a section");
    if (cursor + n > cur->payload.size())
        sim::fatal("ckpt: read past the end of section '%s' "
                   "(offset %zu + %zu > %zu)",
                   cur->name.c_str(), cursor, n, cur->payload.size());
    if (n != 0) // empty vectors hand us out == nullptr
        std::memcpy(out, cur->payload.data() + cursor, n);
    cursor += n;
}

std::string
Deserializer::readString()
{
    const std::uint32_t n = readU32();
    std::string s(n, '\0');
    readBytes(s.data(), n);
    return s;
}

std::vector<bool>
Deserializer::readBoolVec()
{
    const std::uint64_t n = readU64();
    std::vector<bool> v(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        v[static_cast<std::size_t>(i)] = readU8() != 0;
    return v;
}

void
Deserializer::deferEvent(std::uint64_t origSeq, sim::Tick when,
                         sim::Event *ev)
{
    deferred.push_back(Deferred{origSeq, when, ev});
}

void
serializeEvent(Serializer &s, const sim::Event &ev)
{
    s.writeBool(ev.scheduled());
    if (ev.scheduled()) {
        s.writeU64(ev.when());
        s.writeU64(ev.seq());
    }
}

void
unserializeEvent(Deserializer &d, sim::Event *ev)
{
    if (!d.readBool())
        return;
    const sim::Tick when = d.readU64();
    const std::uint64_t seq = d.readU64();
    d.deferEvent(seq, when, ev);
}

void
Deserializer::applyDeferred(sim::EventQueue &eq)
{
    // Replay in original-sequence order: the queue hands out fresh
    // ascending sequence numbers, so same-tick events keep exactly the
    // relative order they had in the checkpointed run.
    std::sort(deferred.begin(), deferred.end(),
              [](const Deferred &a, const Deferred &b) {
                  return a.origSeq < b.origSeq;
              });
    for (const Deferred &d : deferred)
        eq.schedule(d.ev, d.when);
    deferred.clear();
}

} // namespace ckpt
