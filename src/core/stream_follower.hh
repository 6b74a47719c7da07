/**
 * @file
 * Architectural instruction-stream bookkeeping shared by both fetch
 * strategies.
 *
 * PIPE's prepare-to-branch (PBR) instruction names a branch register
 * (the target), a condition, and a delay-slot count k: exactly k
 * dynamic instructions after the PBR execute unconditionally, then
 * the stream continues at the target (if taken) or falls through.
 * The StreamFollower tracks where the next instruction to *deliver*
 * to decode comes from, blocking when the stream reaches an
 * unresolved redirect point.
 *
 * Branch resolutions arrive from the pipeline (one cycle after the
 * PBR issues) in program order.
 */

#ifndef PIPESIM_CORE_STREAM_FOLLOWER_HH
#define PIPESIM_CORE_STREAM_FOLLOWER_HH

#include <deque>
#include <optional>

#include "common/state_io.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace pipesim
{

class StreamFollower
{
  public:
    /** Restart the stream at @p entry. */
    void reset(Addr entry);

    /**
     * Address of the next instruction to deliver, or nullopt when
     * delivery is blocked at an unresolved redirect point.
     */
    std::optional<Addr>
    nextAddr() const
    {
        if (!_pending.empty() && _pending.front().slotsLeft == 0)
            return std::nullopt; // at the redirect point, unresolved
        return _next;
    }

    /** @return true if delivery is blocked awaiting a resolution. */
    bool blocked() const { return !nextAddr().has_value(); }

    /**
     * Record the delivery of the instruction at nextAddr().
     * Advances the stream; a PBR opens a new pending redirect whose
     * delay-slot countdown begins immediately (nested PBRs queue and
     * start counting when they reach the front -- the code generator
     * never nests PBRs inside delay slots).
     */
    void delivered(const isa::Instruction &inst);

    /**
     * A PBR resolved in the pipeline.  Applies to the oldest
     * unresolved pending redirect.
     *
     * @param taken  Branch direction.
     * @param target Branch-register contents (valid when taken).
     */
    void resolved(bool taken, Addr target);

    /**
     * Stream address of the front redirect point: the address of the
     * first instruction past the current PBR's delay slots, if the
     * slot countdown has completed or the byte position is already
     * determined by delivered instructions.  Used by fetch control
     * logic for squashing and guarantee decisions.
     */
    std::optional<Addr> frontRedirectAddr() const;

    /** Front pending redirect is resolved? (false if none pending) */
    bool frontResolved() const;
    /** Front pending redirect resolved taken? */
    bool frontTaken() const;
    /** Front pending redirect target (valid when resolved taken). */
    Addr frontTarget() const;

    /** @return true if any redirect is pending (unapplied). */
    bool hasPending() const { return !_pending.empty(); }

    /**
     * Current stream position: the address following the last
     * delivered instruction, before any unapplied redirect.
     */
    Addr streamPos() const { return _next; }

    /** Delay slots of the front pending redirect still to deliver. */
    unsigned frontSlotsLeft() const;

    /**
     * Identity of the front pending redirect (monotonic), letting
     * fetch control apply squash/retarget actions exactly once.
     */
    std::uint64_t frontId() const;

    /**
     * Save a redirect id the owner compares only for equality with
     * frontId(): relative to the next id, and as "none" once older
     * than the front (see StateWriter::seq).
     */
    void
    saveId(StateWriter &w, std::uint64_t id) const
    {
        w.seq(id, _nextId, _nextId - _pending.size());
    }

    void saveState(StateWriter &w) const
    {
        w.u32(_next);
        w.count(_nextId);
        w.u32(std::uint32_t(_pending.size()));
        for (const Pending &p : _pending) {
            w.u32(p.slotsLeft);
            w.seq(p.id, _nextId);
            w.b(p.resolvedFlag);
            w.b(p.taken);
            w.u32(p.target);
        }
    }

    void restoreState(StateReader &r)
    {
        _next = r.u32();
        _nextId = r.u64();
        _pending.clear();
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
            Pending p;
            p.slotsLeft = r.u32();
            p.id = r.u64();
            p.resolvedFlag = r.b();
            p.taken = r.b();
            p.target = r.u32();
            _pending.push_back(p);
        }
    }

  private:
    /** Apply the front redirect if the stream has reached it. */
    void applyFrontIfDue();

    struct Pending
    {
        unsigned slotsLeft;             //!< delay slots not yet delivered
        std::uint64_t id = 0;
        bool resolvedFlag = false;
        bool taken = false;
        Addr target = 0;
    };

    Addr _next = 0;
    std::uint64_t _nextId = 0;
    std::deque<Pending> _pending;
};

} // namespace pipesim

#endif // PIPESIM_CORE_STREAM_FOLLOWER_HH
