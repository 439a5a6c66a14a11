/**
 * @file
 * Trace capture/replay through the v2 writer, reader and recorder:
 * field fidelity, end of stream without wrap-around, and a captured
 * generator replaying its exact stream.
 */

#include <gtest/gtest.h>

#include <string>

#include "mem/functional_memory.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "workload/profile.hh"
#include "workload/synthetic.hh"

namespace emc
{
namespace
{

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

DynUop
sampleUop(int i)
{
    DynUop d;
    d.uop.op = (i % 3) ? Opcode::kAdd : Opcode::kLoad;
    d.uop.dst = static_cast<std::uint8_t>(i % 14);
    d.uop.src1 = static_cast<std::uint8_t>((i + 1) % 14);
    d.uop.src2 = (i % 5) ? kNoReg : static_cast<std::uint8_t>(i % 7);
    d.uop.imm = i * 123456789LL - 42;
    d.uop.pc = 0x400000 + i * 4;
    d.result = 0xdeadbeef00ull + i;
    d.vaddr = 0x1000 + i * 64;
    d.mem_value = 0xfeedface00ull + i;
    d.taken = (i % 2) == 0;
    d.mispredicted = (i % 7) == 0;
    return d;
}

TEST(TraceIoTest, RoundTripPreservesEveryField)
{
    const std::string path = tmpPath("roundtrip.emct");
    {
        trace::Writer w(path);
        for (int i = 0; i < 100; ++i)
            w.append(sampleUop(i));
        w.close();
    }
    trace::Reader t(path);
    EXPECT_EQ(t.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        DynUop d;
        ASSERT_TRUE(t.next(d)) << i;
        const DynUop ref = sampleUop(i);
        EXPECT_EQ(d.uop.op, ref.uop.op);
        EXPECT_EQ(d.uop.dst, ref.uop.dst);
        EXPECT_EQ(d.uop.src1, ref.uop.src1);
        EXPECT_EQ(d.uop.src2, ref.uop.src2);
        EXPECT_EQ(d.uop.imm, ref.uop.imm);
        EXPECT_EQ(d.uop.pc, ref.uop.pc);
        EXPECT_EQ(d.result, ref.result);
        EXPECT_EQ(d.vaddr, ref.vaddr);
        EXPECT_EQ(d.mem_value, ref.mem_value);
        EXPECT_EQ(d.taken, ref.taken);
        EXPECT_EQ(d.mispredicted, ref.mispredicted);
    }
    DynUop d;
    EXPECT_FALSE(t.next(d));
}

TEST(TraceIoTest, EndOfTraceDoesNotWrap)
{
    // Replays never loop: past the last record the reader reports end
    // of stream, and keeps doing so, without advancing produced().
    const std::string path = tmpPath("end.emct");
    {
        trace::Writer w(path);
        for (int i = 0; i < 5; ++i)
            w.append(sampleUop(i));
        w.close();
    }
    trace::Reader t(path);
    DynUop d;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(t.next(d));
    EXPECT_FALSE(t.next(d));
    EXPECT_FALSE(t.next(d));
    EXPECT_EQ(t.produced(), 5u);
}

TEST(TraceIoTest, CapturedGeneratorReplaysIdentically)
{
    const std::string path = tmpPath("capture.emct");
    FunctionalMemory mem;
    SyntheticProgram gen(profileByName("mcf"), mem, 5);
    {
        trace::Recorder cap(&gen, path, trace::Provenance{"mcf", "", 0, 5});
        DynUop d;
        for (int i = 0; i < 2000; ++i)
            ASSERT_TRUE(cap.next(d));
        cap.finish();
    }
    // Fresh generator with the same seed == the captured stream.
    FunctionalMemory mem2;
    SyntheticProgram gen2(profileByName("mcf"), mem2, 5);
    trace::Reader t(path);
    EXPECT_EQ(t.info().provenance.workload, "mcf");
    for (int i = 0; i < 2000; ++i) {
        DynUop a, b;
        ASSERT_TRUE(t.next(a));
        ASSERT_TRUE(gen2.next(b));
        EXPECT_EQ(a.vaddr, b.vaddr);
        EXPECT_EQ(a.result, b.result);
        EXPECT_EQ(static_cast<int>(a.uop.op),
                  static_cast<int>(b.uop.op));
    }
}

} // namespace
} // namespace emc
