/**
 * The trace container format: round-trips, checksum verification,
 * and — most importantly — that no corruption of any single byte,
 * truncation, or garbage file can do anything other than raise a
 * FatalError with a diagnostic (never crash, never hang, never decode
 * silently wrong).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/sha256.hh"
#include "replay/capture.hh"
#include "replay/trace_format.hh"
#include "sim/config.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;
using namespace pipesim::replay;

namespace
{

Trace
sampleTrace(std::size_t records = 10)
{
    Trace t;
    t.meta.entry = 0x1000;
    t.meta.programSha256 = std::string(64, 'a');
    t.meta.provenance = "unit test";
    Addr pc = 0x1000;
    for (std::size_t i = 0; i < records; ++i) {
        TraceRecord r;
        r.pc = pc;
        if (i % 3 == 1) {
            r.hasMemAddr = true;
            r.memIsStore = (i % 6 == 4);
            r.memAddr = 0x8000 + Addr(i) * 4;
        }
        if (i % 5 == 2) {
            r.isPbr = true;
            r.branchTaken = (i % 2 == 0);
            r.branchTarget = 0x1000 + Addr(i % 4) * 2;
        }
        t.records.push_back(r);
        // Mix of forward and backward moves exercises the zig-zag
        // delta coding.
        pc = (i % 4 == 3) ? pc - 6 : pc + 4;
    }
    return t;
}

} // namespace

TEST(Sha256Test, KnownVectors)
{
    // FIPS 180-4 test vectors.
    EXPECT_EQ(sha256Hex("", 0),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    const std::string abc = "abc";
    EXPECT_EQ(sha256Hex(abc.data(), abc.size()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    const std::string two = "abcdbcdecdefdefgefghfghighijhijk"
                            "ijkljklmklmnlmnomnopnopq";
    EXPECT_EQ(sha256Hex(two.data(), two.size()),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(TraceFormatTest, EncodeDecodeRoundTrip)
{
    Trace t = sampleTrace(4500); // spans two chunks
    const std::vector<std::uint8_t> bytes = encodeTrace(t);
    EXPECT_FALSE(t.sha256.empty());
    const Trace back = decodeTrace(bytes, "test");
    EXPECT_EQ(back.meta.entry, t.meta.entry);
    EXPECT_EQ(back.meta.programSha256, t.meta.programSha256);
    EXPECT_EQ(back.meta.provenance, t.meta.provenance);
    ASSERT_EQ(back.records.size(), t.records.size());
    EXPECT_EQ(back.records, t.records);
    EXPECT_EQ(back.sha256, t.sha256);
}

TEST(TraceFormatTest, EmptyTraceRoundTrips)
{
    Trace t;
    t.meta.programSha256 = std::string(64, 'b');
    const auto bytes = encodeTrace(t);
    const Trace back = decodeTrace(bytes, "empty");
    EXPECT_TRUE(back.records.empty());
}

TEST(TraceFormatTest, FileRoundTripWithChecksum)
{
    const std::string path = "trace_format_roundtrip.pipetrc";
    Trace t = sampleTrace(100);
    writeTrace(t, path);
    const Trace back = readTrace(path);
    EXPECT_EQ(back.records, t.records);
    EXPECT_EQ(back.sha256, t.sha256);
    std::remove(path.c_str());
}

TEST(TraceFormatTest, DescribeNamesTheEssentials)
{
    Trace t = sampleTrace(50);
    encodeTrace(t);
    const std::string d = describeTrace(t);
    EXPECT_NE(d.find("50"), std::string::npos);
    EXPECT_NE(d.find(t.meta.provenance), std::string::npos);
    EXPECT_NE(d.find(t.sha256), std::string::npos);
}

TEST(TraceFormatTest, StreamedHashMatchesEncodedBytes)
{
    Trace empty;
    empty.meta.programSha256 = std::string(64, 'c');
    for (Trace t : {empty, sampleTrace(100),
                    sampleTrace(2 * traceChunkRecords + 7)}) {
        const std::string streamed = traceSha256(t);
        EXPECT_EQ(streamed, sha256Hex(encodeTrace(t)))
            << t.records.size() << " records";
        EXPECT_EQ(streamed, t.sha256) << t.records.size() << " records";
    }
}

TEST(TraceFormatTest, MappedRecordsRoundTrip)
{
    // Past RecordAllocator::mappedBytes the records move from the heap
    // to pages of their own as the vector grows, and decoding reserves
    // mapped pages up front.
    const std::size_t records =
        2 * RecordAllocator<TraceRecord>::mappedBytes / sizeof(TraceRecord);
    Trace t = sampleTrace(records);
    ASSERT_EQ(t.records.size(), records);
    const Trace back = decodeTrace(encodeTrace(t), "mapped");
    EXPECT_EQ(back.records, t.records);
    EXPECT_EQ(back.sha256, t.sha256);
    Trace copy = back;
    copy.records.resize(10); // shrinks in place, still mapped
    copy.records.shrink_to_fit(); // back to the heap
    EXPECT_TRUE(std::equal(copy.records.begin(), copy.records.end(),
                           t.records.begin()));
}

TEST(TraceFormatTest, CapturedLivermoreTraceRoundTrips)
{
    const auto bench = workloads::buildLivermoreBenchmark(0.02);
    Trace t = captureTrace(SimConfig{}, bench.program, "roundtrip");
    ASSERT_GT(t.records.size(), 1000u);
    const auto bytes = encodeTrace(t);
    const Trace back = decodeTrace(bytes, "livermore");
    EXPECT_EQ(back.records, t.records);
    EXPECT_EQ(back.meta.programSha256, programSha256(bench.program));
}

TEST(TraceCorruptionTest, EveryTruncationIsFatal)
{
    Trace t = sampleTrace(20);
    const auto bytes = encodeTrace(t);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + len);
        EXPECT_THROW(decodeTrace(cut, "truncated"), FatalError)
            << "truncated to " << len << " of " << bytes.size();
    }
}

TEST(TraceCorruptionTest, EverySingleByteFlipIsFatal)
{
    // The header CRC covers the metadata and each chunk CRC covers
    // its payload, so *no* single-byte corruption may decode: every
    // flip must raise FatalError — never a crash, hang, or silently
    // wrong record stream.
    Trace t = sampleTrace(20);
    const auto bytes = encodeTrace(t);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (const std::uint8_t flip :
             {std::uint8_t(0xff), std::uint8_t(0x01)}) {
            std::vector<std::uint8_t> bad = bytes;
            bad[i] ^= flip;
            EXPECT_THROW(decodeTrace(bad, "flipped"), FatalError)
                << "byte " << i << " xor 0x" << std::hex << unsigned(flip);
        }
    }
}

TEST(TraceCorruptionTest, GarbageFilesAreFatal)
{
    const std::vector<std::uint8_t> empty;
    EXPECT_THROW(decodeTrace(empty, "empty"), FatalError);

    std::vector<std::uint8_t> noise(256);
    for (std::size_t i = 0; i < noise.size(); ++i)
        noise[i] = std::uint8_t(i * 37 + 11);
    EXPECT_THROW(decodeTrace(noise, "noise"), FatalError);

    // The right magic but nothing else.
    std::vector<std::uint8_t> magicOnly = {'P', 'I', 'P', 'E',
                                           'T', 'R', 'C', '\0'};
    EXPECT_THROW(decodeTrace(magicOnly, "magic-only"), FatalError);
}

TEST(TraceCorruptionTest, WrongVersionIsFatal)
{
    Trace t = sampleTrace(5);
    auto bytes = encodeTrace(t);
    bytes[8] = 0x7f; // version field follows the 8-byte magic
    EXPECT_THROW(decodeTrace(bytes, "version"), FatalError);
}

TEST(TraceCorruptionTest, TrailingGarbageIsFatal)
{
    Trace t = sampleTrace(5);
    auto bytes = encodeTrace(t);
    bytes.push_back(0x42);
    EXPECT_THROW(decodeTrace(bytes, "trailing"), FatalError);
}

TEST(TraceCorruptionTest, MissingFileIsFatal)
{
    EXPECT_THROW(readTrace("no/such/trace.pipetrc"), FatalError);
}

TEST(TraceCorruptionTest, DiagnosticNamesTheFile)
{
    std::vector<std::uint8_t> noise(64, 0xee);
    try {
        decodeTrace(noise, "my-trace-name");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("my-trace-name"),
                  std::string::npos);
    }
}

TEST(TraceFormatTest, ProgramHashDistinguishesPrograms)
{
    const auto a = workloads::buildLivermoreBenchmark(0.02);
    const auto b = workloads::buildLivermoreBenchmark(0.04);
    EXPECT_NE(programSha256(a.program), programSha256(b.program));
    EXPECT_EQ(programSha256(a.program), programSha256(a.program));
    EXPECT_EQ(programSha256(a.program).size(), 64u);
}
