/**
 * @file
 * The loop memo: FastSim's memoization (Schnarr & Larus, ASPLOS 1998)
 * at loop-iteration scale, on both engines (docs/internals.md, "Loop
 * memo").
 *
 * A boundary is the top of a loop: the cycle after the step that
 * issued a taken backward PBR record.  At a boundary whose last
 * records repeat the ones before them, the Simulator offers the memo
 * a keyed checkpoint (StateWriter's tags turn cycle stamps and
 * sequence numbers relative and leave statistics and values out).
 * When the same key came back at the two boundaries one period and
 * two periods earlier, each period was the same function of the key
 * and its records; so as long as the record stream keeps repeating
 * those records, the machine repeats the period.  offer() then returns
 * the machine state k periods on, extrapolated from the last two
 * payloads, and the Simulator restores it instead of ticking.  It
 * reads ahead one period at a time, releasing each confirmed one, so
 * an executor's window holds a few periods, never the trace.
 */

#ifndef PIPESIM_SIM_LOOP_MEMO_HH
#define PIPESIM_SIM_LOOP_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"
#include "cpu/executor.hh"

namespace pipesim
{

class LoopMemo
{
  public:
    /**
     * Keyed boundaries kept, and boundaries remembered: periods of up
     * to half as many.
     */
    static constexpr std::size_t maxBoundaries = 8;

    /** A keyed checkpoint taken at a boundary. */
    struct Boundary
    {
        std::size_t cursor = 0; //!< next record
        Cycle now = 0;
        std::uint64_t hash = 0; //!< of the key, filled by offer()
        std::vector<std::uint8_t> key;
        std::vector<std::uint8_t> payload;
        std::vector<StateWriter::Field> fields;
    };

    explicit LoopMemo(RecordStream &records) : _records(records) {}

    /**
     * Note the step that issued record @p cursor - 1.  @return true
     * if it ended a loop iteration and the last period of records,
     * for a period of up to maxBoundaries / 2 iterations, repeats the
     * one before it: the cheap check that gates building a key.
     */
    bool boundary(std::size_t cursor);

    /**
     * Offer the checkpoint @p b.  @return the payload of the machine
     * k >= 1 periods on, with k as large as the records repeat and as
     * the caps allow: the landing record stays at or below
     * @p recordCap and the landing cycle at or below @p cycleCap, and
     * the stream still holds the @p keepBehind records before it.
     * Otherwise remember @p b and return nothing.
     */
    std::optional<std::vector<std::uint8_t>>
    offer(Boundary b, std::size_t recordCap, Cycle cycleCap,
          std::size_t keepBehind);

  private:
    /** Records [from, to) each equal the one @p period earlier. */
    std::size_t repeatEnd(std::size_t from, std::size_t to,
                          std::size_t period);

    /** Tell the stream the oldest record a later call compares. */
    void keep();

    RecordStream &_records;
    std::deque<std::size_t> _cursors; //!< recent boundaries, oldest first
    std::deque<Boundary> _keyed;      //!< recent keyed ones, oldest first
};

} // namespace pipesim

#endif // PIPESIM_SIM_LOOP_MEMO_HH
