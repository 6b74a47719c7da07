#include "queue/arch_queues.hh"

namespace pipesim
{

ArchQueues::ArchQueues(std::size_t laq_entries, std::size_t ldq_entries,
                       std::size_t saq_entries, std::size_t sdq_entries)
    : _laq(laq_entries), _ldq(ldq_entries), _saq(saq_entries),
      _sdq(sdq_entries)
{
}

void
ArchQueues::sampleOccupancy()
{
    _laqOcc.sample(_laq.size());
    _ldqOcc.sample(_ldq.size());
    _saqOcc.sample(_saq.size());
    _sdqOcc.sample(_sdq.size());
}

void
ArchQueues::repeatOccupancy(std::uint64_t n)
{
    for (Histogram *h : occupancy(*this))
        h->repeat(n);
}

void
ArchQueues::saveState(StateWriter &w, std::uint64_t seqBase) const
{
    auto savePending = [&](const FixedQueue<PendingAccess> &q) {
        w.u32(std::uint32_t(q.size()));
        for (std::size_t i = 0; i < q.size(); ++i) {
            w.seq(q.at(i).seq, seqBase);
            w.dataAddr(q.at(i).addr);
        }
    };
    auto saveWords = [&](const FixedQueue<Word> &q) {
        w.u32(std::uint32_t(q.size()));
        for (std::size_t i = 0; i < q.size(); ++i)
            w.dataWord(q.at(i));
    };
    savePending(_laq);
    saveWords(_ldq);
    savePending(_saq);
    saveWords(_sdq);
    for (const Histogram *h : occupancy(*this))
        h->saveState(w);
}

void
ArchQueues::restoreState(StateReader &r)
{
    auto loadPending = [&](FixedQueue<PendingAccess> &q) {
        q.clear();
        const std::uint32_t n = r.u32();
        if (n > q.capacity())
            r.fail("queue holds ", n, " > capacity ", q.capacity());
        for (std::uint32_t i = 0; i < n; ++i) {
            PendingAccess a;
            a.seq = r.u64();
            a.addr = r.u32();
            q.push(a);
        }
    };
    auto loadWords = [&](FixedQueue<Word> &q) {
        q.clear();
        const std::uint32_t n = r.u32();
        if (n > q.capacity())
            r.fail("queue holds ", n, " > capacity ", q.capacity());
        for (std::uint32_t i = 0; i < n; ++i)
            q.push(r.u32());
    };
    loadPending(_laq);
    loadWords(_ldq);
    loadPending(_saq);
    loadWords(_sdq);
    for (Histogram *h : occupancy(*this))
        h->restoreState(r);
}

void
ArchQueues::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regHistogram(prefix + ".laq_occupancy", &_laqOcc,
                       "LAQ entries in use per cycle");
    stats.regHistogram(prefix + ".ldq_occupancy", &_ldqOcc,
                       "LDQ entries in use per cycle");
    stats.regHistogram(prefix + ".saq_occupancy", &_saqOcc,
                       "SAQ entries in use per cycle");
    stats.regHistogram(prefix + ".sdq_occupancy", &_sdqOcc,
                       "SDQ entries in use per cycle");
}

} // namespace pipesim
