#include "core/fetch_unit.hh"

#include <sstream>

#include "common/abort.hh"
#include "isa/decode.hh"

namespace pipesim
{

FetchUnit::FetchUnit(const Program &program, MemorySystem &mem)
    : _program(program),
      _decoded(program.codeSize() / parcelBytes,
               isa::Instruction{.parcels = 0}),
      _pastEnd(isa::decode(0, 0, program.mode())), _mem(mem),
      _demandPort(*this, ReqClass::IFetchDemand),
      _prefetchPort(*this, ReqClass::IPrefetch)
{
    _mem.setDemandClient(&_demandPort);
    _mem.setPrefetchClient(&_prefetchPort);
}

FetchUnit::~FetchUnit()
{
    _mem.setDemandClient(nullptr);
    _mem.setPrefetchClient(nullptr);
}

void
FetchUnit::noteParityError(Addr addr, unsigned bytes)
{
    ++_parityRetries;
    ++_consecutiveParityErrors;
    if (_consecutiveParityErrors >= _parityRetryLimit) {
        std::ostringstream hex;
        hex << std::hex << addr;
        simAbort("instruction fill at 0x", hex.str(), " (", bytes,
                 " B) failed parity ", _consecutiveParityErrors,
                 " consecutive times (retry limit ", _parityRetryLimit,
                 "): giving up");
    }
}

void
FetchUnit::regParityStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".parity_retries", &_parityRetries,
                     "instruction fills retried after an injected "
                     "parity error");
}

} // namespace pipesim
