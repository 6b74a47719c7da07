#include "core/fetch_unit.hh"

#include "isa/decode.hh"

namespace pipesim
{

FetchUnit::FetchUnit(const Program &program, MemorySystem &mem)
    : _program(program),
      _decoded(program.codeSize() / parcelBytes,
               isa::Instruction{.parcels = 0}),
      _pastEnd(isa::decode(0, 0, program.mode())), _mem(mem)
{
    _mem.setInstructionClient(this);
}

FetchUnit::~FetchUnit()
{
    _mem.setInstructionClient(nullptr);
}

} // namespace pipesim
