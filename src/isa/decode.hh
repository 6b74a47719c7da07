/**
 * @file
 * Instruction decoder: parcels -> decoded Instruction.
 */

#ifndef PIPESIM_ISA_DECODE_HH
#define PIPESIM_ISA_DECODE_HH

#include <optional>

#include "common/types.hh"
#include "isa/encode.hh"
#include "isa/instruction.hh"

namespace pipesim::isa
{

/**
 * Decode an instruction.
 *
 * @param p1   First parcel.
 * @param p2   Second parcel (ignored when the instruction is a
 *             single parcel under @p mode).
 * @param mode Format mode the program was encoded with.
 * @return the decoded instruction; inst.parcels reflects the bytes
 *         the instruction occupies under @p mode.
 */
Instruction decode(Parcel p1, Parcel p2, FormatMode mode);

/** decode(), or nullopt where decode() would panic. */
std::optional<Instruction> tryDecode(Parcel p1, Parcel p2, FormatMode mode);

} // namespace pipesim::isa

#endif // PIPESIM_ISA_DECODE_HH
