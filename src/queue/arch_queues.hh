/**
 * @file
 * PIPE's architectural data queues.
 *
 * A Load instruction pushes an address onto the Load Address Queue
 * (LAQ); the memory system later fills the Load Data Queue (LDQ),
 * whose head the programmer sees as register r7.  Store addresses go
 * to the Store Address Queue (SAQ); store data is produced by writing
 * r7, which pushes the Store Data Queue (SDQ).  The heads of the SAQ
 * and SDQ are sent to memory as a pair.
 */

#ifndef PIPESIM_QUEUE_ARCH_QUEUES_HH
#define PIPESIM_QUEUE_ARCH_QUEUES_HH

#include <array>
#include <cstdint>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "queue/fixed_queue.hh"

namespace pipesim
{

/** One pending memory operation in program order. */
struct PendingAccess
{
    std::uint64_t seq;  //!< program-order sequence number of the op
    Addr addr;
};

/**
 * The four architectural queues, with occupancy statistics.
 *
 * The queues are deliberately owned by one object so the pipeline and
 * the memory interface agree on a single instance.
 */
class ArchQueues
{
  public:
    /**
     * @param laq_entries Load Address Queue capacity.
     * @param ldq_entries Load Data Queue capacity.
     * @param saq_entries Store Address Queue capacity.
     * @param sdq_entries Store Data Queue capacity.
     */
    ArchQueues(std::size_t laq_entries, std::size_t ldq_entries,
               std::size_t saq_entries, std::size_t sdq_entries);

    FixedQueue<PendingAccess> &laq() { return _laq; }
    FixedQueue<Word> &ldq() { return _ldq; }
    FixedQueue<PendingAccess> &saq() { return _saq; }
    FixedQueue<Word> &sdq() { return _sdq; }

    const FixedQueue<PendingAccess> &laq() const { return _laq; }
    const FixedQueue<Word> &ldq() const { return _ldq; }
    const FixedQueue<PendingAccess> &saq() const { return _saq; }
    const FixedQueue<Word> &sdq() const { return _sdq; }

    /**
     * Sample per-cycle occupancies (called once per cycle).  The
     * histograms keep runs of equal occupancy, so a cycle that leaves
     * the queues as they were costs four compares.
     */
    void sampleOccupancy();

    /** Record the last sampled occupancies for @p n more cycles. */
    void repeatOccupancy(std::uint64_t n);

    /** Register occupancy statistics under @p prefix. */
    void regStats(StatGroup &stats, const std::string &prefix);

    /**
     * Serialize queue contents and the occupancy histograms (open
     * runs included) for a checkpoint, with the address queues'
     * sequence numbers relative to @p seqBase.
     */
    void saveState(StateWriter &w, std::uint64_t seqBase) const;

    void restoreState(StateReader &r);

  private:
    /** The occupancy histograms, in LAQ, LDQ, SAQ, SDQ order. */
    template <class Self>
    static auto
    occupancy(Self &self)
    {
        return std::array{&self._laqOcc, &self._ldqOcc, &self._saqOcc,
                          &self._sdqOcc};
    }

    FixedQueue<PendingAccess> _laq;
    FixedQueue<Word> _ldq;
    FixedQueue<PendingAccess> _saq;
    FixedQueue<Word> _sdq;

    Histogram _laqOcc{1, 16};
    Histogram _ldqOcc{1, 16};
    Histogram _saqOcc{1, 16};
    Histogram _sdqOcc{1, 16};
};

} // namespace pipesim

#endif // PIPESIM_QUEUE_ARCH_QUEUES_HH
