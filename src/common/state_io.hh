/**
 * @file
 * Little-endian binary state serialization for machine snapshots.
 *
 * StateWriter appends primitive values to a byte buffer; StateReader
 * reads them back with bounds checking.  Every stateful component
 * (Simulator::saveState and everything it reaches) implements
 * saveState(StateWriter&) / restoreState(StateReader&) on top of
 * these primitives, so the payload layout is defined entirely by the
 * order of the calls — no padding, no host endianness leaks.
 *
 * Each field is written with a tag that says what kind of value it
 * is: exact state (u8/b/u32/u64), a cycle stamp, a statistic, a
 * sequence number, a data address or a data word.  The tag never
 * changes the payload bytes.  A keyed writer also builds the loop
 * memo's key from the tags and lists the fields a skip extrapolates
 * (sim/loop_memo.hh; docs/internals.md, "Loop memo").
 *
 * A StateReader never trusts its input: short payloads, impossible
 * enum values and capacity mismatches all surface as FatalError via
 * fail(), naming the byte offset, in the same spirit as the PIPETRC
 * decoder (replay/trace_format.cc).
 */

#ifndef PIPESIM_COMMON_STATE_IO_HH
#define PIPESIM_COMMON_STATE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"

namespace pipesim
{

/** The kind of a field that a loop-memo skip extrapolates. */
enum class FieldTag : std::uint8_t
{
    Stamp, //!< a cycle; keyed as max(v, now) - now
    Count, //!< a statistic or cursor; not keyed
    Seq,   //!< a sequence number; keyed relative to its base
};

/** Append-only little-endian encoder for checkpoint payloads. */
class StateWriter
{
  public:
    /** Where a tagged 8-byte field sits in the payload. */
    struct Field
    {
        std::uint32_t offset;
        FieldTag tag;

        bool operator==(const Field &) const = default;
    };

    /** The sequence number that stands for "none" (keyed as is). */
    static constexpr std::uint64_t noSeq = ~std::uint64_t(0);

    /** A plain writer: the payload only. */
    StateWriter() = default;

    /**
     * A keyed writer: besides the payload it builds the loop memo's
     * key, with cycle stamps taken relative to @p now and a data
     * address kept only when @p deviceAddr says its identity reaches
     * timing (else keyed as 0, "memory").
     */
    StateWriter(std::uint64_t now, bool (*deviceAddr)(std::uint32_t))
        : _keyed(true), _now(now), _deviceAddr(deviceAddr)
    {
    }

    // Exact state: keyed as is, copied by a skip.
    void u8(std::uint8_t v) { put(v, 1, v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) { put(v, 4, v); }
    void u64(std::uint64_t v) { put(v, 8, v); }

    /**
     * A cycle stamp.  The key holds how far it lies in the future, so
     * it may stand for any past cycle only where every use compares it
     * with the current or a later clock.
     */
    void
    stamp(std::uint64_t v)
    {
        tag(FieldTag::Stamp);
        put(v, 8, v > _now ? v - _now : 0);
    }

    /** A statistic (or the trace cursor): left out of the key. */
    void
    count(std::uint64_t v)
    {
        tag(FieldTag::Count);
        put(v, 8);
    }

    /**
     * A sequence number, keyed relative to @p base.  One below
     * @p floor names nothing live any more and is keyed as noSeq, like
     * noSeq itself: allowed only where every use compares it for
     * equality with a live one.
     */
    void
    seq(std::uint64_t v, std::uint64_t base, std::uint64_t floor = 0)
    {
        tag(FieldTag::Seq);
        put(v, 8, v == noSeq || v < floor ? noSeq : v - base);
    }

    /** A data address: keyed as "memory" or the full device address. */
    void
    dataAddr(std::uint32_t v)
    {
        put(v, 4, _keyed && _deviceAddr(v) ? v : 0);
    }

    /** A data value (register, queue or load/store data): not keyed. */
    void dataWord(std::uint32_t v) { put(v, 4); }

    /** Raw byte run (length must be framed by the caller). */
    void bytes(const std::uint8_t *data, std::size_t len)
    {
        _bytes.insert(_bytes.end(), data, data + len);
        if (_keyed)
            _key.insert(_key.end(), data, data + len);
    }

    const std::vector<std::uint8_t> &data() const { return _bytes; }
    std::vector<std::uint8_t> take() { return std::move(_bytes); }

    /** The memo key (keyed writers only). */
    const std::vector<std::uint8_t> &key() const { return _key; }

    /** Stamp, count and seq fields in payload order (keyed only). */
    const std::vector<Field> &fields() const { return _fields; }

  private:
    static void
    append(std::vector<std::uint8_t> &out, std::uint64_t v, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            out.push_back(std::uint8_t(v >> (8 * i)));
    }

    /** Append @p v to the payload only. */
    void put(std::uint64_t v, unsigned n) { append(_bytes, v, n); }

    /** Append @p v to the payload and @p key to the key. */
    void
    put(std::uint64_t v, unsigned n, std::uint64_t key)
    {
        append(_bytes, v, n);
        if (_keyed)
            append(_key, key, n);
    }

    void
    tag(FieldTag t)
    {
        if (_keyed)
            _fields.push_back(Field{std::uint32_t(_bytes.size()), t});
    }

    std::vector<std::uint8_t> _bytes;
    bool _keyed = false;
    std::uint64_t _now = 0;
    bool (*_deviceAddr)(std::uint32_t) = nullptr;
    std::vector<std::uint8_t> _key;
    std::vector<Field> _fields;
};

/** Bounds-checked little-endian decoder for checkpoint payloads. */
class StateReader
{
  public:
    /** @param label Context prefix for diagnostics ("checkpoint
     *         window 3" and the like). */
    StateReader(const std::vector<std::uint8_t> &bytes,
                std::string label)
        : _bytes(bytes.data()), _size(bytes.size()),
          _label(std::move(label))
    {
    }

    std::uint8_t u8()
    {
        if (_pos >= _size)
            fail("payload truncated");
        return _bytes[_pos++];
    }

    bool b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            fail("bool field holds ", unsigned(v));
        return v != 0;
    }

    std::uint32_t u32()
    {
        std::uint32_t v = u8();
        v |= std::uint32_t(u8()) << 8;
        v |= std::uint32_t(u8()) << 16;
        v |= std::uint32_t(u8()) << 24;
        return v;
    }

    std::uint64_t u64()
    {
        std::uint64_t v = u32();
        v |= std::uint64_t(u32()) << 32;
        return v;
    }

    void bytes(std::uint8_t *out, std::size_t len)
    {
        if (len > remaining())
            fail("payload truncated (need ", len, " bytes, have ",
                 remaining(), ")");
        for (std::size_t i = 0; i < len; ++i)
            out[i] = _bytes[_pos + i];
        _pos += len;
    }

    std::size_t remaining() const { return _size - _pos; }
    std::size_t pos() const { return _pos; }

    /** Require that the payload was consumed exactly. */
    void expectEnd()
    {
        if (_pos != _size)
            fail("payload has ", remaining(), " trailing bytes");
    }

    /** Abort restore with a corruption diagnostic naming the offset. */
    template <typename... Args>
    [[noreturn]] void fail(Args &&...what) const
    {
        fatal(_label, ": corrupt state at byte ", _pos, ": ",
              std::forward<Args>(what)...);
    }

  private:
    const std::uint8_t *_bytes;
    std::size_t _size;
    std::size_t _pos = 0;
    std::string _label;
};

} // namespace pipesim

#endif // PIPESIM_COMMON_STATE_IO_HH
