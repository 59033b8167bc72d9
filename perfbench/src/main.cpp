/**
 * @file
 * emprof_perfbench: the compiled half of the benchmark.  run.py drives
 * it one subcommand at a time; see README.md for the workloads.
 *
 *   synth       --kind dense|impaired|fleet --seed N --samples N --out P
 *               [--count K]                     write the inputs
 *   reference   --capture P --mode classic|resilient
 *             | --dir D --count K --refs F      streaming-path digests
 *   analyze     --capture P --mode M --digest H --seconds S
 *   peak        --capture P --mode M --digest H
 *   trace-batch --capture P --mode M --digest H --seconds S --trace-out F
 *   fleet       --endpoint E --dir D --count K --refs F --seed N
 *               --threads T --trace-out F
 *   passes      --endpoint E --dir D --count K --refs F --seed N --seconds S
 *   local       --dir D --count K --refs F --seconds S
 *   components  --dir D --count K --refs F --seed N --spool-dir D
 *               --trace-out F
 */

#include <cstdio>
#include <exception>
#include <string>

#include "util.hpp"

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <subcommand> [--flag value]...\n",
                     argv[0]);
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args args(argc, argv, 2);
        if (cmd == "synth")
            return cmdSynth(args);
        if (cmd == "reference")
            return cmdReference(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "peak")
            return cmdPeak(args);
        if (cmd == "trace-batch")
            return cmdTraceBatch(args);
        if (cmd == "fleet")
            return cmdFleet(args);
        if (cmd == "passes")
            return cmdPasses(args);
        if (cmd == "local")
            return cmdLocal(args);
        if (cmd == "components")
            return cmdComponents(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
        return 2;
    }
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
}
