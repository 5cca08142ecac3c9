/**
 * @file
 * `smite` — command-line front end to the library.
 *
 *   smite machines
 *       List the machine-model presets.
 *   smite workloads
 *       List the bundled workload profiles.
 *   smite solo <app> [options]
 *       Solo IPC and PMU profile of one application.
 *   smite characterize <app> [options]
 *       Ruler characterization (sensitivity/contentiousness).
 *   smite predict <victim> <aggressor> [options]
 *       Train Equation 3 and predict a co-location, with the
 *       measured truth for comparison.
 *
 * Common options:
 *   --machine ivb|snb     machine preset (default ivb)
 *   --mode smt|cmp        co-location mode (default smt)
 *   --train even|odd      SPEC training split (default even)
 *   --cache <file>        run log (default: smite_replay_cache.txt)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/smite.h"

using namespace smite;

namespace {

struct Options {
    sim::MachineConfig machine = sim::MachineConfig::ivyBridge();
    core::CoLocationMode mode = core::CoLocationMode::kSmt;
    bool trainEven = true;
    std::string cacheFile = sim::kRunLogFile;
    std::vector<std::string> positional;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <machines|workloads|solo|characterize|"
                 "predict> [args] [--machine ivb|snb] [--mode smt|cmp]"
                 " [--train even|odd] [--cache FILE]\n",
                 argv0);
    return 2;
}

bool
parse(int argc, char **argv, Options &opts)
{
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--machine") {
            const char *v = next();
            if (v == nullptr)
                return false;
            if (std::strcmp(v, "ivb") == 0)
                opts.machine = sim::MachineConfig::ivyBridge();
            else if (std::strcmp(v, "snb") == 0)
                opts.machine = sim::MachineConfig::sandyBridgeEN();
            else
                return false;
        } else if (arg == "--mode") {
            const char *v = next();
            if (v == nullptr)
                return false;
            if (std::strcmp(v, "smt") == 0)
                opts.mode = core::CoLocationMode::kSmt;
            else if (std::strcmp(v, "cmp") == 0)
                opts.mode = core::CoLocationMode::kCmp;
            else
                return false;
        } else if (arg == "--train") {
            const char *v = next();
            if (v == nullptr)
                return false;
            opts.trainEven = std::strcmp(v, "even") == 0;
        } else if (arg == "--cache") {
            const char *v = next();
            if (v == nullptr)
                return false;
            opts.cacheFile = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return false;
        } else {
            opts.positional.push_back(arg);
        }
    }
    return true;
}

const workload::WorkloadProfile &
lookup(const std::string &name)
{
    for (const auto &p : workload::spec2006::all()) {
        if (p.name == name)
            return p;
    }
    return workload::cloudsuite::byName(name);
}

core::Lab
makeLab(const Options &opts)
{
    // Returned as a prvalue: the Lab is non-movable (its memo caches
    // carry synchronization state).
    return core::Lab(opts.machine, opts.cacheFile);
}

int
cmdMachines()
{
    for (const auto &config : {sim::MachineConfig::ivyBridge(),
                               sim::MachineConfig::sandyBridgeEN()}) {
        std::printf("%-5s %-32s %d cores x %d contexts, L3 %lluMB\n",
                    config.numCores == 6 ? "snb" : "ivb",
                    config.name.c_str(), config.numCores,
                    config.contextsPerCore,
                    static_cast<unsigned long long>(
                        config.l3.sizeBytes >> 20));
    }
    return 0;
}

int
cmdWorkloads()
{
    std::printf("SPEC CPU2006 (29):\n");
    for (const auto &p : workload::spec2006::all()) {
        std::printf("  %-16s %s\n", p.name.c_str(),
                    workload::suiteName(p.suite));
    }
    std::printf("CloudSuite (4):\n");
    for (const auto &p : workload::cloudsuite::all()) {
        std::printf("  %-16s latency-sensitive%s\n", p.name.c_str(),
                    p.reportsPercentile ? ", reports percentiles" : "");
    }
    return 0;
}

int
cmdSolo(const Options &opts)
{
    if (opts.positional.size() != 1)
        return 2;
    core::Lab lab = makeLab(opts);
    const auto &app = lookup(opts.positional[0]);
    std::printf("%s on %s\n", app.name.c_str(),
                opts.machine.name.c_str());
    std::printf("  solo IPC: %.3f\n", lab.soloIpc(app));
    const auto rates = lab.pmuProfile(app);
    for (int r = 0; r < sim::kNumPmuRates; ++r) {
        std::printf("  %-28s %.5f\n", sim::kPmuRateNames[r].data(),
                    rates[r]);
    }
    return 0;
}

int
cmdCharacterize(const Options &opts)
{
    if (opts.positional.size() != 1)
        return 2;
    core::Lab lab = makeLab(opts);
    const auto &app = lookup(opts.positional[0]);
    const auto &c = lab.characterization(app, opts.mode);
    std::printf("%s (%s co-location on %s)\n", app.name.c_str(),
                core::modeName(opts.mode), opts.machine.name.c_str());
    std::printf("  %-14s %12s %16s\n", "dimension", "sensitivity",
                "contentiousness");
    for (int d = 0; d < rulers::kNumDimensions; ++d) {
        std::printf("  %-14s %11.1f%% %15.1f%%\n",
                    rulers::dimensionName(
                        rulers::kAllDimensions[d]).data(),
                    100 * c.sensitivity[d],
                    100 * c.contentiousness[d]);
    }
    return 0;
}

int
cmdPredict(const Options &opts)
{
    if (opts.positional.size() != 2)
        return 2;
    core::Lab lab = makeLab(opts);
    const auto &victim = lookup(opts.positional[0]);
    const auto &aggressor = lookup(opts.positional[1]);

    const auto training = opts.trainEven
                              ? workload::spec2006::evenNumbered()
                              : workload::spec2006::oddNumbered();
    std::fprintf(stderr, "training Equation 3 on the %s-numbered SPEC "
                 "benchmarks...\n", opts.trainEven ? "even" : "odd");
    const core::Predictor model = core::Predictor::train(
        core::PredictorKind::kSmite,
        core::trainingCorpus(lab, training, opts.mode).samples);

    const double predicted = model.predictDegradation(
        core::signatureOf(lab, victim, opts.mode),
        core::signatureOf(lab, aggressor, opts.mode));
    const double measured =
        lab.pairDegradation(victim, aggressor, opts.mode);
    std::printf("%s co-located with %s (%s):\n", victim.name.c_str(),
                aggressor.name.c_str(), core::modeName(opts.mode));
    std::printf("  predicted degradation: %6.2f%%\n", 100 * predicted);
    std::printf("  measured degradation:  %6.2f%%\n", 100 * measured);
    std::printf("  absolute error:        %6.2f%%\n",
                100 * std::abs(predicted - measured));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    Options opts;
    if (!parse(argc, argv, opts))
        return usage(argv[0]);

    const std::string command = argv[1];
    try {
        if (command == "machines")
            return cmdMachines();
        if (command == "workloads")
            return cmdWorkloads();
        if (command == "solo")
            return cmdSolo(opts) == 2 ? usage(argv[0]) : 0;
        if (command == "characterize")
            return cmdCharacterize(opts) == 2 ? usage(argv[0]) : 0;
        if (command == "predict")
            return cmdPredict(opts) == 2 ? usage(argv[0]) : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
