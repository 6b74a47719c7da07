/**
 * The cache-size sweeps behind the paper's Figures 4-6, plus the
 * memory-speed trend between them: total execution cycles vs. cache
 * size, one table per figure panel.
 *
 * One row of kFigures per binary.  CMake builds this file once per
 * row, under the row's binary name, and sets PIPESIM_FIGURE to that
 * name to pick the row.
 */

#include <vector>

#include "bench_common.hh"

#ifndef PIPESIM_FIGURE
#error "PIPESIM_FIGURE must name a row of kFigures"
#endif

using namespace pipesim;

namespace
{

struct Panel
{
    const char *title;
    unsigned accessTime; //!< memory access time (cycles)
    unsigned busBytes;   //!< input bus width
    bool pipelined;      //!< memory accepts a new request every cycle
};

struct Figure
{
    const char *binary;
    const char *description;
    std::vector<Panel> panels;
};

const Figure kFigures[] = {
    // Figure 4: non-pipelined memory, 1-cycle access time.
    //
    // Expected shape (paper section 6): a large improvement up to the
    // knee near 128 bytes (half the inner loops fit), then flattening;
    // with the 8-byte bus, configurations 8-8 and 16-16 are nearly
    // flat — a 16-32 byte PIPE cache performs close to a 512-byte
    // cache.
    {"fig4_memspeed1",
     "Figure 4: cycles vs cache size, memory access time 1, "
     "non-pipelined",
     {{"Figure 4a: bus = 4 bytes", 1, 4, false},
      {"Figure 4b: bus = 8 bytes", 1, 8, false}}},

    // Figure 5: non-pipelined memory, 6-cycle access time.
    //
    // Expected shape (paper section 6): every PIPE configuration beats
    // the conventional cache at every size; at small caches the PIPE
    // configurations are far less sensitive to the bus width than the
    // conventional cache ("if one is forced to use a bus width of 4
    // bytes ... the PIPE strategy will significantly outperform the
    // conventional cache approach").
    {"fig5_memspeed6",
     "Figure 5: cycles vs cache size, memory access time 6, "
     "non-pipelined",
     {{"Figure 5a: bus = 4 bytes", 6, 4, false},
      {"Figure 5b: bus = 8 bytes", 6, 8, false}}},

    // Figure 6: 8-byte bus, 6-cycle access time; (a) non-pipelined
    // memory (same data as Figure 5b), (b) pipelined memory.
    //
    // Expected shape (paper section 6): pipelining shifts the curves
    // down and compresses them; the best configurations have 16- or
    // 32-byte lines (the reverse of Figure 4); configuration 16-16
    // performs uniformly well across all cache sizes.
    {"fig6_pipelined",
     "Figure 6: bus 8 bytes, memory access time 6, non-pipelined vs "
     "pipelined",
     {{"Figure 6a: non-pipelined memory", 6, 8, false},
      {"Figure 6b: pipelined memory", 6, 8, true}}},

    // Memory-speed trend: the paper notes that "simulations with
    // memory access times of 2 and 3 clock cycles showed similar
    // results" to the 6-cycle case.  This sweeps every access time in
    // {1, 2, 3, 6} (8-byte bus, non-pipelined) so the trend between
    // Figures 4 and 5 is visible.
    {"sweep_memspeed",
     "cache-size sweep across memory access times 1/2/3/6",
     {{"memory access time = 1 cycles", 1, 8, false},
      {"memory access time = 2 cycles", 2, 8, false},
      {"memory access time = 3 cycles", 3, 8, false},
      {"memory access time = 6 cycles", 6, 8, false}}},
};

const Figure &
thisFigure()
{
    for (const Figure &f : kFigures)
        if (std::string(f.binary) == PIPESIM_FIGURE)
            return f;
    panic("no figure row named ", PIPESIM_FIGURE);
}

int
run(int argc, char **argv)
{
    const Figure &figure = thisFigure();
    auto s = bench::setup(argc, argv, figure.description);
    if (!s)
        return 0;

    for (const Panel &panel : figure.panels) {
        SweepSpec spec;
        spec.cacheSizes = bench::paperCacheSizes();
        spec.mem.accessTime = panel.accessTime;
        spec.mem.busWidthBytes = panel.busBytes;
        spec.mem.pipelined = panel.pipelined;
        bench::applySweepOptions(spec, *s);
        bench::printPanel(*s, panel.title,
                          runCacheSweep(spec, s->benchmark.program));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
