#include "core/stream_follower.hh"

#include "common/log.hh"

namespace pipesim
{

void
StreamFollower::reset(Addr entry)
{
    _next = entry;
    _pending.clear();
}

void
StreamFollower::delivered(const isa::Instruction &inst)
{
    PIPESIM_ASSERT(nextAddr().has_value(),
                   "delivery while blocked at a redirect point");
    _next += inst.sizeBytes();
    if (!_pending.empty() && _pending.front().slotsLeft > 0)
        --_pending.front().slotsLeft;
    if (inst.isPbr()) {
        Pending p{inst.count, _nextId++, false, false, 0};
        _pending.push_back(p);
    }
    applyFrontIfDue();
}

void
StreamFollower::resolved(bool taken, Addr target)
{
    for (Pending &p : _pending) {
        if (!p.resolvedFlag) {
            p.resolvedFlag = true;
            p.taken = taken;
            p.target = target;
            applyFrontIfDue();
            return;
        }
    }
    panic("branch resolution with no unresolved PBR pending");
}

void
StreamFollower::applyFrontIfDue()
{
    while (!_pending.empty() && _pending.front().slotsLeft == 0 &&
           _pending.front().resolvedFlag) {
        if (_pending.front().taken)
            _next = _pending.front().target;
        _pending.pop_front();
    }
}

std::optional<Addr>
StreamFollower::frontRedirectAddr() const
{
    if (_pending.empty() || _pending.front().slotsLeft != 0)
        return std::nullopt;
    return _next;
}

bool
StreamFollower::frontResolved() const
{
    return !_pending.empty() && _pending.front().resolvedFlag;
}

bool
StreamFollower::frontTaken() const
{
    return frontResolved() && _pending.front().taken;
}

Addr
StreamFollower::frontTarget() const
{
    PIPESIM_ASSERT(frontResolved(), "frontTarget of unresolved redirect");
    return _pending.front().target;
}

unsigned
StreamFollower::frontSlotsLeft() const
{
    PIPESIM_ASSERT(hasPending(), "frontSlotsLeft with nothing pending");
    return _pending.front().slotsLeft;
}

std::uint64_t
StreamFollower::frontId() const
{
    PIPESIM_ASSERT(hasPending(), "frontId with nothing pending");
    return _pending.front().id;
}

} // namespace pipesim
