/**
 * The checkpoint encoding (common/state_io.hh) pinned byte for byte:
 * a fixed sequence of writer calls must give the same payload, memo
 * key and field list however the writer grows its buffers, and a
 * reader must refuse every truncation of that payload with a
 * FatalError.  The loop memo compares keys and extrapolates fields
 * by these exact bytes, so neither may move.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/state_io.hh"

using namespace pipesim;

namespace
{

bool
device(std::uint32_t addr)
{
    return addr >= 0xf000;
}

/** One call of each kind, tags and key rules all exercised. */
void
writeSequence(StateWriter &w)
{
    w.u8(0xab);
    w.b(true);
    w.b(false);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.stamp(1500); // 500 cycles ahead of now = 1000
    w.stamp(700);  // past: keyed as 0
    w.count(42);
    const std::uint64_t run[] = {1, 2, ~std::uint64_t(0)};
    w.counts(run, 3);
    w.seq(105, 100);
    w.seq(StateWriter::noSeq, 100);
    w.seq(50, 40, 60); // below the floor: keyed as noSeq
    w.dataAddr(0x1234); // memory: keyed as 0
    w.dataAddr(0xf010); // device: keyed as is
    w.dataWord(0xcafebabe);
    const std::uint8_t raw[] = {1, 2, 3, 4, 5};
    w.bytes(raw, 5);
}

/** Read writeSequence() back, checking every value. */
void
readSequence(StateReader &r)
{
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.u64(), 1500u);
    EXPECT_EQ(r.u64(), 700u);
    EXPECT_EQ(r.u64(), 42u);
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_EQ(r.u64(), 2u);
    EXPECT_EQ(r.u64(), ~std::uint64_t(0));
    EXPECT_EQ(r.u64(), 105u);
    EXPECT_EQ(r.u64(), StateWriter::noSeq);
    EXPECT_EQ(r.u64(), 50u);
    EXPECT_EQ(r.u32(), 0x1234u);
    EXPECT_EQ(r.u32(), 0xf010u);
    EXPECT_EQ(r.u32(), 0xcafebabeu);
    std::uint8_t raw[5] = {};
    r.bytes(raw, 5);
    EXPECT_EQ(raw[0], 1);
    EXPECT_EQ(raw[4], 5);
    r.expectEnd();
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    std::string s;
    char b[3];
    for (std::uint8_t v : bytes) {
        std::snprintf(b, sizeof b, "%02x", v);
        s += b;
    }
    return s;
}

const char *const pinnedPayload =
    "ab0100efbeaddeefcdab8967452301dc05000000000000bc0200000000000"
    "02a0000000000000001000000000000000200000000000000ffffffffffff"
    "ffff6900000000000000ffffffffffffffff320000000000000034120000"
    "10f00000bebafeca0102030405";

const char *const pinnedKey =
    "ab0100efbeaddeefcdab8967452301f401000000000000000000000000000"
    "00500000000000000ffffffffffffffffffffffffffffffff0000000010f0"
    "00000102030405";

const std::vector<StateWriter::Field> pinnedFields = {
    {15, FieldTag::Stamp}, {23, FieldTag::Stamp}, {31, FieldTag::Count},
    {39, FieldTag::Count}, {47, FieldTag::Count}, {55, FieldTag::Count},
    {63, FieldTag::Seq},   {71, FieldTag::Seq},   {79, FieldTag::Seq}};

} // namespace

TEST(StateIoTest, KeyedSequenceMatchesPinnedBytes)
{
    StateWriter w(1000, &device);
    writeSequence(w);
    EXPECT_EQ(hex(w.data()), pinnedPayload);
    EXPECT_EQ(hex(w.key()), pinnedKey);
    EXPECT_EQ(w.fields(), pinnedFields);
    const StateWriter::Sizes sizes = w.sizes();
    EXPECT_EQ(sizes.bytes, 104u);
    EXPECT_EQ(sizes.key, 68u);
    EXPECT_EQ(sizes.fields, pinnedFields.size());
    // Moved out, the same bytes.
    EXPECT_EQ(hex(w.takeKey()), pinnedKey);
    EXPECT_EQ(w.takeFields(), pinnedFields);
    EXPECT_EQ(hex(w.take()), pinnedPayload);
}

TEST(StateIoTest, PlainWriterWritesThePayloadOnly)
{
    StateWriter w;
    writeSequence(w);
    EXPECT_EQ(hex(w.data()), pinnedPayload);
    EXPECT_TRUE(w.key().empty());
    EXPECT_TRUE(w.fields().empty());
}

TEST(StateIoTest, SizeHintMovesNoByte)
{
    // Smaller than, equal to and larger than what is written: the
    // buffers grow or not, the bytes are the same.
    for (const StateWriter::Sizes hint :
         {StateWriter::Sizes{1, 1, 1}, StateWriter::Sizes{104, 68, 9},
          StateWriter::Sizes{4096, 4096, 512}}) {
        StateWriter w(1000, &device, hint);
        writeSequence(w);
        EXPECT_EQ(hex(w.key()), pinnedKey) << hint.bytes;
        EXPECT_EQ(w.fields(), pinnedFields) << hint.bytes;
        EXPECT_EQ(hex(w.take()), pinnedPayload) << hint.bytes;
    }
}

TEST(StateIoTest, CountsIsCountOfEach)
{
    std::vector<std::uint64_t> run(300);
    for (std::size_t i = 0; i < run.size(); ++i)
        run[i] = i * 0x0101010101ull;
    StateWriter one(7, &device), each(7, &device);
    one.u8(1);
    each.u8(1);
    one.counts(run.data(), run.size());
    for (std::uint64_t v : run)
        each.count(v);
    one.counts(run.data(), 0);
    EXPECT_EQ(one.data(), each.data());
    EXPECT_EQ(one.key(), each.key());
    EXPECT_EQ(one.fields(), each.fields());
}

TEST(StateIoTest, ReaderReadsTheSequenceBack)
{
    StateWriter w;
    writeSequence(w);
    const std::vector<std::uint8_t> payload = w.take();
    StateReader r(payload, "sequence");
    readSequence(r);
}

TEST(StateIoTest, EveryTruncationIsFatal)
{
    StateWriter w;
    writeSequence(w);
    const std::vector<std::uint8_t> payload = w.take();
    for (std::size_t len = 0; len < payload.size(); ++len) {
        const std::vector<std::uint8_t> cut(payload.begin(),
                                            payload.begin() + len);
        StateReader r(cut, "truncated sequence");
        try {
            readSequence(r);
            ADD_FAILURE() << "truncated to " << len << " bytes: no error";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("corrupt state at byte"),
                      std::string::npos)
                << e.what();
        }
    }
}
