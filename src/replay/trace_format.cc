#include "replay/trace_format.hh"

#include <sys/mman.h>

#include <array>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include "assembler/program.hh"
#include "common/log.hh"
#include "common/sha256.hh"

namespace pipesim::replay
{

namespace
{

constexpr std::array<std::uint8_t, 8> kMagic = {'P', 'I', 'P', 'E',
                                                'T', 'R', 'C', '\0'};

// Record flag bits.
constexpr std::uint8_t kFlagMem = 1 << 0;
constexpr std::uint8_t kFlagStore = 1 << 1;
constexpr std::uint8_t kFlagPbr = 1 << 2;
constexpr std::uint8_t kFlagTaken = 1 << 3;
constexpr std::uint8_t kFlagsKnown =
    kFlagMem | kFlagStore | kFlagPbr | kFlagTaken;

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

std::uint32_t
zigzag(std::int64_t v)
{
    return std::uint32_t((v << 1) ^ (v >> 63));
}

std::int64_t
unzigzag(std::uint32_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    while (v >= 0x80) {
        out.push_back(std::uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(std::uint8_t(v));
}

/** Signed delta between two 32-bit addresses, in [-2^31, 2^31). */
std::int64_t
addrDelta(Addr to, Addr from)
{
    return std::int64_t(std::int32_t(to - from));
}

/** Bounds-checked cursor over one byte buffer; all read failures
 *  funnel into FatalError with the buffer name and offset. */
class Reader
{
  public:
    Reader(const std::vector<std::uint8_t> &bytes, const std::string &name)
        : _bytes(bytes), _name(name)
    {
    }

    std::size_t pos() const { return _pos; }
    std::size_t remaining() const { return _bytes.size() - _pos; }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        fatal("trace ", _name, ": ", what, " (at byte offset ", _pos,
              " of ", _bytes.size(), ")");
    }

    const std::uint8_t *
    take(std::size_t n, const char *what)
    {
        if (remaining() < n)
            fail(std::string("truncated while reading ") + what);
        const std::uint8_t *p = _bytes.data() + _pos;
        _pos += n;
        return p;
    }

    std::uint8_t takeU8(const char *what) { return *take(1, what); }

    std::uint32_t
    takeU32(const char *what)
    {
        const std::uint8_t *p = take(4, what);
        return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
               std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
    }

    std::uint64_t
    takeU64(const char *what)
    {
        const std::uint64_t lo = takeU32(what);
        const std::uint64_t hi = takeU32(what);
        return lo | hi << 32;
    }

    std::uint32_t
    takeVarint(const char *what)
    {
        std::uint32_t v = 0;
        for (unsigned shift = 0; shift < 35; shift += 7) {
            const std::uint8_t b = takeU8(what);
            v |= std::uint32_t(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
        fail(std::string("overlong varint in ") + what);
    }

  private:
    const std::vector<std::uint8_t> &_bytes;
    std::string _name;
    std::size_t _pos = 0;
};

} // namespace

std::string
programSha256(const Program &program)
{
    Sha256 h;
    const std::uint32_t mode = std::uint32_t(program.mode());
    const std::uint32_t base = program.codeBase();
    const std::uint32_t entry = program.entry();
    h.update(&mode, sizeof(mode));
    h.update(&base, sizeof(base));
    h.update(&entry, sizeof(entry));
    h.update(program.code().data(), program.code().size());
    for (const auto &seg : program.dataSegments()) {
        const std::uint32_t segBase = seg.base;
        const std::uint64_t segLen = seg.bytes.size();
        h.update(&segBase, sizeof(segBase));
        h.update(&segLen, sizeof(segLen));
        h.update(seg.bytes.data(), seg.bytes.size());
    }
    return h.hexDigest();
}

void *
mapRecordPages(std::size_t bytes)
{
    void *pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED)
        throw std::bad_alloc();
    return pages;
}

void
unmapRecordPages(void *pages, std::size_t bytes)
{
    munmap(pages, bytes);
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (unsigned k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

namespace
{

/**
 * Write the PIPETRC byte stream of @p trace to @p sink, a header and
 * then each chunk's frame and payload in turn, as
 * sink(const std::uint8_t *, std::size_t).  Only one chunk's payload
 * is held at a time.
 */
template <class Sink>
void
encodeTo(const Trace &trace, Sink &&sink)
{
    PIPESIM_ASSERT(trace.meta.programSha256.size() == 64,
                   "program hash must be 64 hex chars");
    // The header, then each chunk's size and checksum.
    std::vector<std::uint8_t> frame;
    frame.insert(frame.end(), kMagic.begin(), kMagic.end());
    putU32(frame, traceFormatVersion);
    putU32(frame, 0); // reserved
    putU64(frame, trace.records.size());
    putU32(frame, trace.meta.entry);
    putU32(frame, traceChunkRecords);
    for (unsigned i = 0; i < 64; i += 2) {
        const auto nibble = [&](char c) -> std::uint8_t {
            if (c >= '0' && c <= '9')
                return std::uint8_t(c - '0');
            PIPESIM_ASSERT(c >= 'a' && c <= 'f',
                           "program hash must be lower-case hex");
            return std::uint8_t(c - 'a' + 10);
        };
        frame.push_back(
            std::uint8_t(nibble(trace.meta.programSha256[i]) << 4 |
                         nibble(trace.meta.programSha256[i + 1])));
    }
    putU32(frame, std::uint32_t(trace.meta.provenance.size()));
    frame.insert(frame.end(), trace.meta.provenance.begin(),
               trace.meta.provenance.end());
    // Header checksum: the chunk CRCs only protect record payloads,
    // but a flipped header byte (entry pc, record count, hash) would
    // silently shift every decoded address.
    putU32(frame, crc32(frame.data(), frame.size()));
    sink(frame.data(), frame.size());

    std::vector<std::uint8_t> payload;
    for (std::size_t base = 0; base < trace.records.size();
         base += traceChunkRecords) {
        const std::size_t count = std::min<std::size_t>(
            traceChunkRecords, trace.records.size() - base);
        payload.clear();
        Addr prevPc = trace.meta.entry;
        Addr prevMem = 0;
        for (std::size_t i = base; i < base + count; ++i) {
            const TraceRecord &r = trace.records[i];
            std::uint8_t flags = 0;
            if (r.hasMemAddr)
                flags |= kFlagMem;
            if (r.memIsStore)
                flags |= kFlagStore;
            if (r.isPbr)
                flags |= kFlagPbr;
            if (r.branchTaken)
                flags |= kFlagTaken;
            payload.push_back(flags);
            putVarint(payload, zigzag(addrDelta(r.pc, prevPc)));
            prevPc = r.pc;
            if (r.hasMemAddr) {
                putVarint(payload, zigzag(addrDelta(r.memAddr, prevMem)));
                prevMem = r.memAddr;
            }
            if (r.isPbr)
                putVarint(payload,
                          zigzag(addrDelta(r.branchTarget, r.pc)));
        }
        frame.clear();
        putU32(frame, std::uint32_t(payload.size()));
        putU32(frame, crc32(payload.data(), payload.size()));
        sink(frame.data(), frame.size());
        sink(payload.data(), payload.size());
    }
}

} // namespace

std::vector<std::uint8_t>
encodeTrace(Trace &trace)
{
    std::vector<std::uint8_t> out;
    encodeTo(trace, [&out](const std::uint8_t *p, std::size_t n) {
        out.insert(out.end(), p, p + n);
    });
    trace.sha256 = sha256Hex(out);
    return out;
}

std::string
traceSha256(const Trace &trace)
{
    Sha256 h;
    encodeTo(trace, [&h](const std::uint8_t *p, std::size_t n) {
        h.update(p, n);
    });
    return h.hexDigest();
}

Trace
decodeTrace(const std::vector<std::uint8_t> &bytes, const std::string &name)
{
    Reader in(bytes, name);

    const std::uint8_t *magic = in.take(kMagic.size(), "magic");
    if (std::memcmp(magic, kMagic.data(), kMagic.size()) != 0)
        fatal("trace ", name, ": bad magic (not a pipesim trace file)");
    const std::uint32_t version = in.takeU32("version");
    if (version != traceFormatVersion)
        fatal("trace ", name, ": unsupported format version ", version,
              " (this build reads version ", traceFormatVersion, ")");
    in.takeU32("reserved field");
    const std::uint64_t recordCount = in.takeU64("record count");
    // A record costs at least 2 bytes encoded; anything claiming more
    // records than the file could hold is corrupt, and rejecting it
    // here bounds every allocation below.
    if (recordCount > bytes.size() / 2 + 1)
        fatal("trace ", name, ": record count ", recordCount,
              " impossible for a ", bytes.size(), "-byte file");

    Trace trace;
    trace.meta.entry = in.takeU32("entry pc");
    const std::uint32_t chunkRecords = in.takeU32("chunk size");
    if (chunkRecords == 0)
        fatal("trace ", name, ": zero records per chunk");
    const std::uint8_t *hash = in.take(32, "program hash");
    static const char hex[] = "0123456789abcdef";
    for (unsigned i = 0; i < 32; ++i) {
        trace.meta.programSha256 += hex[hash[i] >> 4];
        trace.meta.programSha256 += hex[hash[i] & 0xf];
    }
    const std::uint32_t provLen = in.takeU32("provenance length");
    if (provLen > in.remaining())
        in.fail("provenance length runs past end of file");
    const std::uint8_t *prov = in.take(provLen, "provenance");
    trace.meta.provenance.assign(prov, prov + provLen);
    const std::uint32_t headerCrcComputed = crc32(bytes.data(), in.pos());
    const std::uint32_t headerCrcStored = in.takeU32("header checksum");
    if (headerCrcStored != headerCrcComputed)
        fatal("trace ", name, ": header failed its checksum (stored ",
              headerCrcStored, ", computed ", headerCrcComputed,
              "): the file is corrupt");

    trace.records.reserve(recordCount);
    while (trace.records.size() < recordCount) {
        const std::size_t chunkStart = in.pos();
        const std::uint32_t payloadBytes = in.takeU32("chunk header");
        const std::uint32_t expectedCrc = in.takeU32("chunk checksum");
        if (payloadBytes > in.remaining())
            in.fail("chunk payload runs past end of file");
        const std::uint8_t *payload = in.take(payloadBytes, "chunk payload");
        const std::uint32_t actualCrc = crc32(payload, payloadBytes);
        if (actualCrc != expectedCrc)
            fatal("trace ", name, ": chunk at byte offset ", chunkStart,
                  " failed its checksum (stored ", expectedCrc,
                  ", computed ", actualCrc,
                  "): the file is corrupt");

        const std::size_t want = std::min<std::size_t>(
            chunkRecords, recordCount - trace.records.size());
        std::vector<std::uint8_t> chunk(payload, payload + payloadBytes);
        Reader rec(chunk, name + " (chunk at offset " +
                              std::to_string(chunkStart) + ")");
        Addr prevPc = trace.meta.entry;
        Addr prevMem = 0;
        for (std::size_t i = 0; i < want; ++i) {
            TraceRecord r;
            const std::uint8_t flags = rec.takeU8("record flags");
            if (flags & ~kFlagsKnown)
                rec.fail("unknown record flag bits set");
            r.hasMemAddr = flags & kFlagMem;
            r.memIsStore = flags & kFlagStore;
            r.isPbr = flags & kFlagPbr;
            r.branchTaken = flags & kFlagTaken;
            if (r.memIsStore && !r.hasMemAddr)
                rec.fail("store flag without a memory address");
            if (r.branchTaken && !r.isPbr)
                rec.fail("taken flag on a non-branch record");
            r.pc = Addr(std::int64_t(prevPc) +
                        unzigzag(rec.takeVarint("pc delta")));
            prevPc = r.pc;
            if (r.hasMemAddr) {
                r.memAddr =
                    Addr(std::int64_t(prevMem) +
                         unzigzag(rec.takeVarint("memory address delta")));
                prevMem = r.memAddr;
            }
            if (r.isPbr)
                r.branchTarget =
                    Addr(std::int64_t(r.pc) +
                         unzigzag(rec.takeVarint("branch target delta")));
            trace.records.push_back(r);
        }
        if (rec.remaining() != 0)
            fatal("trace ", name, ": chunk at byte offset ", chunkStart,
                  " has ", rec.remaining(),
                  " byte(s) of trailing garbage after its last record");
    }
    if (in.remaining() != 0)
        in.fail("trailing bytes after the last chunk");

    trace.sha256 = sha256Hex(bytes);
    return trace;
}

void
writeTrace(Trace &trace, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeTrace(trace);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatal("cannot open trace file ", path, " for writing");
    os.write(reinterpret_cast<const char *>(bytes.data()),
             std::streamsize(bytes.size()));
    if (!os)
        fatal("failed writing ", bytes.size(), " bytes to trace file ",
              path);
}

Trace
readTrace(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open trace file ", path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
        fatal("failed reading trace file ", path);
    return decodeTrace(bytes, path);
}

std::string
describeTrace(const Trace &trace)
{
    std::uint64_t loads = 0, stores = 0, pbrs = 0, taken = 0;
    for (const TraceRecord &r : trace.records) {
        if (r.hasMemAddr)
            ++(r.memIsStore ? stores : loads);
        if (r.isPbr) {
            ++pbrs;
            if (r.branchTaken)
                ++taken;
        }
    }
    std::ostringstream os;
    os << "records:      " << trace.records.size() << "\n"
       << "entry pc:     0x" << std::hex << trace.meta.entry << std::dec
       << "\n"
       << "loads:        " << loads << "\n"
       << "stores:       " << stores << "\n"
       << "branches:     " << pbrs << " (" << taken << " taken)\n"
       << "program hash: " << trace.meta.programSha256 << "\n"
       << "trace sha256: " << trace.sha256 << "\n"
       << "provenance:   "
       << (trace.meta.provenance.empty() ? "(none)"
                                         : trace.meta.provenance)
       << "\n";
    return os.str();
}

} // namespace pipesim::replay
