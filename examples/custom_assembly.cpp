/**
 * Custom assembly: assemble and run your own PIPE program, with an
 * optional per-instruction trace.  With no file argument a built-in
 * demo program (queue-based memcpy with loop control) runs.
 *
 *     ./custom_assembly [file.s] [--strategy conv] [--trace]
 */

#include <iostream>

#include "assembler/assembler.hh"
#include "isa/disasm.hh"
#include "obs/obs_cli.hh"
#include "sim/cli.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "trace/trace.hh"

using namespace pipesim;

namespace
{

/** Copy 8 words through the architectural queues, then checksum. */
const char *demoProgram = R"(
; queue-based memcpy + checksum demo
.equ    N, 8
        li   r1, src
        li   r2, dst
        li   r3, N
        li   r4, 0          ; checksum
        lbr  b0, loop
loop:
        ld   [r1 + 0]       ; LAQ <- &src[i]
        addi r1, r1, 4
        st   [r2 + 0]       ; SAQ <- &dst[i]
        addi r2, r2, 4
        mov  r5, r7         ; value from LDQ
        mov  r7, r5         ; push to SDQ (store data)
        add  r4, r4, r5     ; checksum
        subi r3, r3, 1
        pbr  b0, 0, nez, r3
        li   r6, sum
        st   [r6 + 0]
        mov  r7, r4
        halt
.data 0x4000
src:    .word 1, 2, 3, 4, 5, 6, 7, 8
dst:    .space 32
sum:    .word 0
)";

} // namespace

namespace
{

int
run(int argc, char **argv)
{
    CliParser cli("assemble and run a PIPE assembly program");
    cli.addOption("strategy", "16-16", "fetch strategy");
    cli.addOption("cache", "128", "instruction cache bytes");
    cli.addOption("mem", "1", "memory access time");
    cli.addFlag("trace", "print every retired instruction");
    cli.addFlag("list", "print the assembled program and exit");
    // Single run: no sweep/engine groups, just obs + profiling.
    const StandardFlagGroups groups{false, false};
    registerStandardFlags(cli, groups);
    if (!cli.parse(argc, argv))
        return 0;
    const StandardFlags flags = standardFlagsFromCli(cli, groups);

    Program program =
        cli.positional().empty()
            ? assembler::assemble(demoProgram)
            : assembler::assembleFile(cli.positional()[0]);

    if (cli.getFlag("list")) {
        for (Addr a = program.codeBase(); program.inCode(a);) {
            const auto inst = *program.decodeAt(a);
            std::cout << a << ":\t" << isa::disassemble(inst) << "\n";
            a += inst.sizeBytes();
        }
        return 0;
    }

    SimConfig cfg;
    const std::string strategy = cli.get("strategy");
    cfg.fetch = strategy == "conv"
                    ? conventionalConfigFor(unsigned(cli.getInt("cache")))
                    : pipeConfigFor(strategy,
                                    unsigned(cli.getInt("cache")));
    cfg.mem.accessTime = unsigned(cli.getInt("mem"));

    Simulator sim(cfg, program);
    obs::ObsSession obs_session(flags.obs, sim);
    InstructionTracer tracer(std::cout);
    if (cli.getFlag("trace"))
        tracer.attach(sim.probes());

    const SimResult res = sim.run();
    std::cout << "\nhalted after " << res.totalCycles << " cycles, "
              << res.instructions << " instructions\n";
    obs_session.finish(res, strategy);

    // For the demo program, show the results it computed.
    if (cli.positional().empty()) {
        std::cout << "dst: ";
        for (unsigned i = 0; i < 8; ++i)
            std::cout << sim.dataMemory().readWord(
                             *program.symbol("dst") + 4 * i)
                      << " ";
        std::cout << "\nchecksum: "
                  << sim.dataMemory().readWord(*program.symbol("sum"))
                  << " (expected 36)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
