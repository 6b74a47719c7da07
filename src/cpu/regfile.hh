/**
 * @file
 * The PIPE register file: sixteen 32-bit data registers arranged as
 * 8 foreground + 8 background (switched by RSW to speed subroutine
 * calls), plus the 8 branch registers used by LBR/PBR.
 *
 * Register r7 of the visible bank is the architectural queue
 * register; the pipeline intercepts reads/writes of it (LDQ/SDQ), so
 * its storage here is never used.
 *
 * The accessors are inline: the pipeline calls them on every issue
 * check.
 */

#ifndef PIPESIM_CPU_REGFILE_HH
#define PIPESIM_CPU_REGFILE_HH

#include <array>

#include "common/log.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "isa/fields.hh"

namespace pipesim
{

class RegFile
{
  public:
    RegFile() { reset(); }

    void
    reset()
    {
        _regs.fill(0);
        _busy.fill(0);
        _branch.fill(0);
        _bank = 0;
    }

    /** Read data register @p r of the visible bank. */
    Word read(unsigned r) const { return _regs[index(r)]; }

    /** Write data register @p r of the visible bank. */
    void write(unsigned r, Word value) { _regs[index(r)] = value; }

    /** Cycle until which register @p r is busy (result latency). */
    Cycle busyUntil(unsigned r) const { return _busy[index(r)]; }
    void setBusyUntil(unsigned r, Cycle cycle) { _busy[index(r)] = cycle; }

    /** Toggle foreground/background banks (the RSW instruction). */
    void switchBanks() { _bank ^= 1; }
    unsigned currentBank() const { return _bank; }

    Addr
    readBranch(unsigned br) const
    {
        PIPESIM_ASSERT(br < isa::numBranchRegs, "bad branch register ", br);
        return _branch[br];
    }

    void
    writeBranch(unsigned br, Addr value)
    {
        PIPESIM_ASSERT(br < isa::numBranchRegs, "bad branch register ", br);
        _branch[br] = value;
    }

    void saveState(StateWriter &w) const
    {
        for (Word v : _regs)
            w.dataWord(v);
        // Compared only as busyUntil > now (Pipeline::issueHazard)
        // and max(last + 1, busyUntil) (Pipeline::sourcesFree).
        for (Cycle c : _busy)
            w.stamp(c);
        for (Addr a : _branch)
            w.u32(a);
        w.u32(_bank);
    }

    void restoreState(StateReader &r)
    {
        for (Word &v : _regs)
            v = r.u32();
        for (Cycle &c : _busy)
            c = r.u64();
        for (Addr &a : _branch)
            a = r.u32();
        _bank = r.u32();
        if (_bank > 1)
            r.fail("register bank holds ", _bank);
    }

  private:
    unsigned
    index(unsigned r) const
    {
        PIPESIM_ASSERT(r < isa::numDataRegs, "bad register number ", r);
        return _bank * isa::numDataRegs + r;
    }

    std::array<Word, 2 * isa::numDataRegs> _regs;
    std::array<Cycle, 2 * isa::numDataRegs> _busy;
    std::array<Addr, isa::numBranchRegs> _branch;
    unsigned _bank = 0;
};

} // namespace pipesim

#endif // PIPESIM_CPU_REGFILE_HH
