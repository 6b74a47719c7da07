/**
 * @file
 * Fundamental scalar types used throughout pipesim.
 *
 * The PIPE processor is modelled as a byte-addressed machine with
 * 16-bit instruction parcels and 32-bit data words.  All simulated
 * time is expressed in processor clock cycles.
 */

#ifndef PIPESIM_COMMON_TYPES_HH
#define PIPESIM_COMMON_TYPES_HH

#include <cstdint>

namespace pipesim
{

/** A byte address in the simulated machine's address space. */
using Addr = std::uint32_t;

/** Simulated time, in processor clock cycles. */
using Cycle = std::uint64_t;

/** "No event pending": later than any cycle a run reaches. */
inline constexpr Cycle neverCycle = ~Cycle(0);

/** A 16-bit instruction parcel (the PIPE ISA's atomic code unit). */
using Parcel = std::uint16_t;

/** A 32-bit data word (register width and memory access width). */
using Word = std::uint32_t;

/** Signed view of a data word, for arithmetic semantics. */
using SWord = std::int32_t;

/** Size of an instruction parcel in bytes. */
inline constexpr unsigned parcelBytes = 2;

/** Size of a data word in bytes. */
inline constexpr unsigned wordBytes = 4;

} // namespace pipesim

#endif // PIPESIM_COMMON_TYPES_HH
