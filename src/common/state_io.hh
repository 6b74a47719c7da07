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

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

    /**
     * How much a keyed writer reserves: the payload bytes, key bytes
     * and fields of a checkpoint like the one it is about to take.
     */
    struct Sizes
    {
        std::size_t bytes = 0;
        std::size_t key = 0;
        std::size_t fields = 0;
    };

    /** The sequence number that stands for "none" (keyed as is). */
    static constexpr std::uint64_t noSeq = ~std::uint64_t(0);

    /** A plain writer: the payload only. */
    StateWriter() = default;

    /**
     * A keyed writer: besides the payload it builds the loop memo's
     * key, with cycle stamps taken relative to @p now and a data
     * address kept only when @p deviceAddr says its identity reaches
     * timing (else keyed as 0, "memory").  @p hint sizes its buffers,
     * so a checkpoint no larger than the hint allocates each once.
     */
    StateWriter(std::uint64_t now, bool (*deviceAddr)(std::uint32_t))
        : StateWriter(now, deviceAddr, Sizes())
    {
    }

    StateWriter(std::uint64_t now, bool (*deviceAddr)(std::uint32_t),
                const Sizes &hint)
        : _keyed(true), _now(now), _deviceAddr(deviceAddr)
    {
        _bytes.reserve(hint.bytes);
        _key.reserve(hint.key);
        _fields.reserve(hint.fields);
    }

    // Exact state: keyed as is, copied by a skip.
    void u8(std::uint8_t v) { put<1>(v, v); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) { put<4>(v, v); }
    void u64(std::uint64_t v) { put<8>(v, v); }

    /**
     * A cycle stamp.  The key holds how far it lies in the future, so
     * it may stand for any past cycle only where every use compares it
     * with the current or a later clock.
     */
    void
    stamp(std::uint64_t v)
    {
        tag(FieldTag::Stamp);
        put<8>(v, v > _now ? v - _now : 0);
    }

    /** A statistic (or the trace cursor): left out of the key. */
    void
    count(std::uint64_t v)
    {
        tag(FieldTag::Count);
        _bytes.put<8>(v);
    }

    /** @p n statistics in a row: count() of each. */
    void
    counts(const std::uint64_t *v, std::size_t n)
    {
        if (_keyed)
            for (std::size_t i = 0; i < n; ++i)
                _fields.push_back(
                    Field{std::uint32_t(_bytes.size() + 8 * i),
                          FieldTag::Count});
        std::uint8_t *out = _bytes.extend(8 * n);
        for (std::size_t i = 0; i < n; ++i)
            store<8>(out + 8 * i, v[i]);
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
        put<8>(v, v == noSeq || v < floor ? noSeq : v - base);
    }

    /** A data address: keyed as "memory" or the full device address. */
    void
    dataAddr(std::uint32_t v)
    {
        put<4>(v, _keyed && _deviceAddr(v) ? v : 0);
    }

    /** A data value (register, queue or load/store data): not keyed. */
    void dataWord(std::uint32_t v) { _bytes.put<4>(v); }

    /** Raw byte run (length must be framed by the caller). */
    void bytes(const std::uint8_t *data, std::size_t len)
    {
        std::copy(data, data + len, _bytes.extend(len));
        if (_keyed)
            std::copy(data, data + len, _key.extend(len));
    }

    /** The payload so far (a copy). */
    std::vector<std::uint8_t> data() const { return _bytes.copy(); }
    /** The payload, moved out. */
    std::vector<std::uint8_t> take() { return _bytes.take(); }

    /** The memo key (keyed writers only): a copy, or moved out. */
    std::vector<std::uint8_t> key() const { return _key.copy(); }
    std::vector<std::uint8_t> takeKey() { return _key.take(); }

    /** Stamp, count and seq fields in payload order (keyed only). */
    const std::vector<Field> &fields() const { return _fields; }
    std::vector<Field> takeFields() { return std::move(_fields); }

    /** What has been written so far: a hint for a later writer. */
    Sizes
    sizes() const
    {
        return Sizes{_bytes.size(), _key.size(), _fields.size()};
    }

  private:
    /**
     * A byte vector kept as long as its capacity, the bytes written so
     * far at its front: an append is one capacity check and plain
     * stores, and the storage doubles when it runs out.
     */
    class Buffer
    {
      public:
        void
        reserve(std::size_t n)
        {
            if (n > _store.size())
                _store.resize(n);
        }

        /** Make room for @p n more bytes; @return where they go. */
        std::uint8_t *
        extend(std::size_t n)
        {
            if (_store.size() - _size < n) [[unlikely]]
                grow(n);
            std::uint8_t *at = _store.data() + _size;
            _size += n;
            return at;
        }

        /** Append the low @p N bytes of @p v, little-endian. */
        template <unsigned N>
        void
        put(std::uint64_t v)
        {
            store<N>(extend(N), v);
        }

        std::size_t size() const { return _size; }

        std::vector<std::uint8_t>
        copy() const
        {
            return {_store.begin(),
                    _store.begin() + std::ptrdiff_t(_size)};
        }

        std::vector<std::uint8_t>
        take()
        {
            _store.resize(_size);
            _size = 0;
            return std::move(_store);
        }

      private:
        /** Double the storage, or more if @p n bytes need it. */
        [[gnu::noinline]] void
        grow(std::size_t n)
        {
            _store.resize(std::max(
                {std::size_t(64), 2 * _store.size(), _size + n}));
        }

        std::vector<std::uint8_t> _store;
        std::size_t _size = 0;
    };

    /** Store the low @p N bytes of @p v at @p out, little-endian. */
    template <unsigned N>
    static void
    store(std::uint8_t *out, std::uint64_t v)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(out, &v, N);
        } else {
            for (unsigned i = 0; i < N; ++i)
                out[i] = std::uint8_t(v >> (8 * i));
        }
    }

    /** Append @p N bytes of @p v to the payload and of @p key to the
     *  key. */
    template <unsigned N>
    void
    put(std::uint64_t v, std::uint64_t key)
    {
        _bytes.put<N>(v);
        if (_keyed)
            _key.put<N>(key);
    }

    void
    tag(FieldTag t)
    {
        if (_keyed)
            _fields.push_back(Field{std::uint32_t(_bytes.size()), t});
    }

    Buffer _bytes;
    bool _keyed = false;
    std::uint64_t _now = 0;
    bool (*_deviceAddr)(std::uint32_t) = nullptr;
    Buffer _key;
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

    std::uint32_t u32() { return std::uint32_t(word<4>()); }
    std::uint64_t u64() { return word<8>(); }

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
    /** The next @p N bytes as a little-endian word. */
    template <unsigned N>
    std::uint64_t
    word()
    {
        if (remaining() < N) [[unlikely]]
            fail("payload truncated (need ", N, " bytes, have ",
                 remaining(), ")");
        std::uint64_t v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, _bytes + _pos, N);
        } else {
            for (unsigned i = 0; i < N; ++i)
                v |= std::uint64_t(_bytes[_pos + i]) << (8 * i);
        }
        _pos += N;
        return v;
    }

    const std::uint8_t *_bytes;
    std::size_t _size;
    std::size_t _pos = 0;
    std::string _label;
};

} // namespace pipesim

#endif // PIPESIM_COMMON_STATE_IO_HH
