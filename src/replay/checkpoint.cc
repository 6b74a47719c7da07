#include "replay/checkpoint.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/sha256.hh"
#include "common/state_io.hh"
#include "replay/trace_format.hh"

namespace pipesim::replay
{

namespace
{

constexpr std::array<std::uint8_t, 8> kMagic = {'P', 'I', 'P', 'E',
                                                'C', 'K', 'P', 'T'};

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

void
putHexDigest(std::vector<std::uint8_t> &out, const std::string &hex,
             const char *what)
{
    if (hex.size() != 64)
        fatal("checkpoint encode: ", what, " must be 64 hex chars, got ",
              hex.size());
    const auto nibble = [&](char c) -> std::uint8_t {
        if (c >= '0' && c <= '9')
            return std::uint8_t(c - '0');
        if (c >= 'a' && c <= 'f')
            return std::uint8_t(c - 'a' + 10);
        fatal("checkpoint encode: ", what,
              " must be lower-case hex, got '", c, "'");
    };
    for (unsigned i = 0; i < 64; i += 2)
        out.push_back(
            std::uint8_t(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
}

std::string
hexDigestString(const std::uint8_t *bytes)
{
    static const char hex[] = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (unsigned i = 0; i < 32; ++i) {
        s += hex[bytes[i] >> 4];
        s += hex[bytes[i] & 0xf];
    }
    return s;
}

/** Bounds-checked cursor, mirroring the PIPETRC decoder's. */
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
        fatal("checkpoint ", _name, ": ", what, " (at byte offset ",
              _pos, " of ", _bytes.size(), ")");
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

  private:
    const std::vector<std::uint8_t> &_bytes;
    std::string _name;
    std::size_t _pos = 0;
};

} // namespace

std::string
configSha256(const SimConfig &config)
{
    // Serialize through StateWriter so the hash input is fixed-order,
    // fixed-width and endian-independent — the same discipline as the
    // checkpoint payloads it keys.
    StateWriter w;
    w.u32(std::uint32_t(config.fetch.strategy));
    w.u32(config.fetch.cacheBytes);
    w.u32(config.fetch.lineBytes);
    w.u32(config.fetch.iqBytes);
    w.u32(config.fetch.iqbBytes);
    w.u32(std::uint32_t(config.fetch.offchipPolicy));
    w.b(config.fetch.alwaysPrefetch);
    w.u32(config.mem.accessTime);
    w.u32(config.mem.busWidthBytes);
    w.b(config.mem.pipelined);
    w.b(config.mem.instructionPriority);
    w.u32(config.mem.fpuLatency);
    w.u32(config.mem.dcacheBytes);
    w.u32(config.mem.dcacheLineBytes);
    w.u64(config.cpu.laqEntries);
    w.u64(config.cpu.ldqEntries);
    w.u64(config.cpu.saqEntries);
    w.u64(config.cpu.sdqEntries);
    w.u32(config.cpu.aluLatency);
    return sha256Hex(w.data());
}

std::string
checkpointPath(const std::string &dir, const SimConfig &config)
{
    return dir + "/ckpt-" + configSha256(config).substr(0, 16) +
           ".pipeckpt";
}

std::vector<std::uint8_t>
encodeCheckpoint(CheckpointSet &set)
{
    std::vector<std::uint8_t> out;
    out.insert(out.end(), kMagic.begin(), kMagic.end());
    putU32(out, checkpointFormatVersion);
    putU32(out, 0); // reserved
    putHexDigest(out, set.meta.traceSha256, "trace hash");
    putHexDigest(out, set.meta.programSha256, "program hash");
    putHexDigest(out, set.meta.configSha256, "config hash");
    putU32(out, set.meta.samplePeriod);
    putU32(out, set.meta.sampleWarmup);
    putU32(out, set.meta.sampleMeasure);
    putU64(out, set.meta.traceRecords);
    putU32(out, std::uint32_t(set.windows.size()));
    putU32(out, std::uint32_t(set.meta.provenance.size()));
    out.insert(out.end(), set.meta.provenance.begin(),
               set.meta.provenance.end());
    // Header checksum: a flipped byte in the cache key must not let a
    // stale snapshot masquerade as valid for this configuration.
    putU32(out, crc32(out.data(), out.size()));

    for (const CheckpointWindow &win : set.windows) {
        putU64(out, win.index);
        putU64(out, win.start);
        putU64(out, win.warmEnd);
        putU32(out, std::uint32_t(win.payload.size()));
        putU32(out, crc32(win.payload.data(), win.payload.size()));
        out.insert(out.end(), win.payload.begin(), win.payload.end());
    }

    // Whole-file digest; doubles as the telemetry identity.
    Sha256 h;
    h.update(out.data(), out.size());
    const auto digest = h.digest();
    set.sha256 = hexDigestString(digest.data());
    out.insert(out.end(), digest.begin(), digest.end());
    return out;
}

CheckpointSet
decodeCheckpoint(const std::vector<std::uint8_t> &bytes,
                 const std::string &name)
{
    // Verify the whole-file digest first: it covers the window
    // payloads' structure (lengths, offsets) that the per-window CRCs
    // alone cannot anchor to the header.
    if (bytes.size() < kMagic.size() + 32)
        fatal("checkpoint ", name, ": file too short (", bytes.size(),
              " bytes) to be a pipesim checkpoint");
    const std::size_t bodyLen = bytes.size() - 32;
    Sha256 h;
    h.update(bytes.data(), bodyLen);
    const auto digest = h.digest();
    if (std::memcmp(digest.data(), bytes.data() + bodyLen, 32) != 0)
        fatal("checkpoint ", name,
              ": file digest mismatch: the file is corrupt or "
              "truncated");

    Reader in(bytes, name);
    const std::uint8_t *magic = in.take(kMagic.size(), "magic");
    if (std::memcmp(magic, kMagic.data(), kMagic.size()) != 0)
        fatal("checkpoint ", name,
              ": bad magic (not a pipesim checkpoint file)");
    const std::uint32_t version = in.takeU32("version");
    if (version != checkpointFormatVersion)
        fatal("checkpoint ", name, ": unsupported format version ",
              version, " (this build reads version ",
              checkpointFormatVersion, ")");
    in.takeU32("reserved field");

    CheckpointSet set;
    set.meta.traceSha256 = hexDigestString(in.take(32, "trace hash"));
    set.meta.programSha256 =
        hexDigestString(in.take(32, "program hash"));
    set.meta.configSha256 = hexDigestString(in.take(32, "config hash"));
    set.meta.samplePeriod = in.takeU32("sample period");
    set.meta.sampleWarmup = in.takeU32("sample warmup");
    set.meta.sampleMeasure = in.takeU32("sample measure");
    set.meta.traceRecords = in.takeU64("trace record count");
    const std::uint32_t windowCount = in.takeU32("window count");
    // A window costs at least its 32-byte descriptor; anything
    // claiming more windows than the file could hold is corrupt, and
    // rejecting it here bounds every allocation below.
    if (windowCount > bytes.size() / 32 + 1)
        fatal("checkpoint ", name, ": window count ", windowCount,
              " impossible for a ", bytes.size(), "-byte file");
    const std::uint32_t provLen = in.takeU32("provenance length");
    if (provLen > in.remaining())
        in.fail("provenance length runs past end of file");
    const std::uint8_t *prov = in.take(provLen, "provenance");
    set.meta.provenance.assign(prov, prov + provLen);
    const std::uint32_t headerCrcComputed = crc32(bytes.data(), in.pos());
    const std::uint32_t headerCrcStored = in.takeU32("header checksum");
    if (headerCrcStored != headerCrcComputed)
        fatal("checkpoint ", name,
              ": header failed its checksum (stored ", headerCrcStored,
              ", computed ", headerCrcComputed,
              "): the file is corrupt");

    set.windows.reserve(windowCount);
    for (std::uint32_t i = 0; i < windowCount; ++i) {
        const std::size_t winStart = in.pos();
        CheckpointWindow win;
        win.index = in.takeU64("window index");
        win.start = in.takeU64("window start record");
        win.warmEnd = in.takeU64("window warm-end record");
        if (win.start > win.warmEnd ||
            win.warmEnd > set.meta.traceRecords)
            fatal("checkpoint ", name, ": window at byte offset ",
                  winStart, " claims records [", win.start, ", ",
                  win.warmEnd, ") outside the ",
                  set.meta.traceRecords, "-record trace");
        const std::uint32_t payloadBytes = in.takeU32("payload size");
        const std::uint32_t expectedCrc = in.takeU32("payload checksum");
        if (payloadBytes > in.remaining())
            in.fail("window payload runs past end of file");
        const std::uint8_t *payload =
            in.take(payloadBytes, "window payload");
        const std::uint32_t actualCrc = crc32(payload, payloadBytes);
        if (actualCrc != expectedCrc)
            fatal("checkpoint ", name, ": window at byte offset ",
                  winStart, " failed its checksum (stored ",
                  expectedCrc, ", computed ", actualCrc,
                  "): the file is corrupt");
        win.payload.assign(payload, payload + payloadBytes);
        set.windows.push_back(std::move(win));
    }
    if (in.remaining() != 32)
        in.fail("trailing bytes between the last window and the file "
                "digest");

    set.sha256 = hexDigestString(digest.data());
    return set;
}

void
writeCheckpoint(CheckpointSet &set, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeCheckpoint(set);
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec)
            fatal("cannot create checkpoint directory ",
                  parent.string(), ": ", ec.message());
    }
    // Write-then-rename: a concurrent reader (another sweep point, a
    // crashed creator's successor) either sees the old complete file
    // or the new complete file, never a torn one.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open checkpoint file ", tmp, " for writing");
        os.write(reinterpret_cast<const char *>(bytes.data()),
                 std::streamsize(bytes.size()));
        if (!os)
            fatal("failed writing ", bytes.size(),
                  " bytes to checkpoint file ", tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename checkpoint file ", tmp, " to ", path);
}

CheckpointSet
readCheckpoint(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open checkpoint file ", path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    if (!is.good() && !is.eof())
        fatal("failed reading checkpoint file ", path);
    return decodeCheckpoint(bytes, path);
}

std::string
describeCheckpoint(const CheckpointSet &set)
{
    std::size_t payloadBytes = 0;
    for (const CheckpointWindow &win : set.windows)
        payloadBytes += win.payload.size();
    std::ostringstream os;
    os << "windows:       " << set.windows.size() << "\n"
       << "state bytes:   " << payloadBytes << "\n"
       << "sample period: " << set.meta.samplePeriod << " (warmup "
       << set.meta.sampleWarmup << ", measure " << set.meta.sampleMeasure
       << ")\n"
       << "trace records: " << set.meta.traceRecords << "\n"
       << "trace sha256:  " << set.meta.traceSha256 << "\n"
       << "program hash:  " << set.meta.programSha256 << "\n"
       << "config hash:   " << set.meta.configSha256 << "\n"
       << "file sha256:   " << set.sha256 << "\n"
       << "provenance:    "
       << (set.meta.provenance.empty() ? "(none)"
                                       : set.meta.provenance)
       << "\n";
    return os.str();
}

} // namespace pipesim::replay
