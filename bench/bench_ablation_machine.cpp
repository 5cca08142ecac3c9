/**
 * @file
 * Machine-model ablation (design-choice study from DESIGN.md §6):
 * how the optional microarchitectural features change the
 * interference landscape the Rulers measure.
 *
 *  - next-line prefetching recovers streaming throughput and shifts
 *    contention from latency to bandwidth;
 *  - an inclusive L3 adds inclusion-victim interference, making
 *    cache-resident applications more sensitive to L3 pressure.
 */

#include "bench/common.h"
#include "core/parallel.h"

using namespace smite;

namespace {

struct Variant {
    const char *name;
    sim::MachineConfig config;
};

double
soloIpc(const sim::Machine &machine,
        const workload::WorkloadProfile &app)
{
    workload::ProfileUopSource source(app);
    return machine.runSolo(source).ipc();
}

double
pairDeg(const sim::Machine &machine,
        const workload::WorkloadProfile &victim,
        const workload::WorkloadProfile &aggressor)
{
    const double solo = soloIpc(machine, victim);
    workload::ProfileUopSource a(victim, 1), b(aggressor, 2);
    const auto counters = machine.runPairSmt(a, b);
    return (solo - counters[0].ipc()) / solo;
}

} // namespace

int
main()
{
    bench::ReportScope obs_scope("bench_ablation_machine");
    bench::banner("Machine ablation",
                  "Prefetching and L3 inclusion vs interference "
                  "behaviour");

    sim::MachineConfig base = sim::MachineConfig::ivyBridge();
    sim::MachineConfig prefetch = base;
    prefetch.l2NextLinePrefetch = true;
    sim::MachineConfig inclusive = base;
    inclusive.inclusiveL3 = true;
    sim::MachineConfig both = prefetch;
    both.inclusiveL3 = true;

    const std::vector<Variant> variants = {
        {"baseline", base},
        {"+prefetch", prefetch},
        {"+inclusive L3", inclusive},
        {"+both", both},
    };

    const auto &lbm = workload::spec2006::byName("470.lbm");
    const auto &libq = workload::spec2006::byName("462.libquantum");
    const auto &calculix = workload::spec2006::byName("454.calculix");
    const auto &omnetpp = workload::spec2006::byName("471.omnetpp");

    std::printf("%-16s %10s %10s %16s %18s\n", "variant",
                "lbm IPC", "libq IPC", "lbm|lbm deg",
                "calculix|omnetpp");
    // The variants are independent measurements on independent
    // machines; fan them out and print in order afterwards.
    struct Row {
        double lbm_ipc, libq_ipc, lbm_deg, mix_deg;
    };
    std::vector<Row> rows(variants.size());
    core::parallelFor(variants.size(), [&](std::size_t i) {
        const sim::Machine machine(variants[i].config);
        rows[i] = Row{soloIpc(machine, lbm), soloIpc(machine, libq),
                      pairDeg(machine, lbm, lbm),
                      pairDeg(machine, calculix, omnetpp)};
    });
    for (std::size_t i = 0; i < variants.size(); ++i) {
        std::printf("%-16s %10.3f %10.3f %15.1f%% %17.1f%%\n",
                    variants[i].name, rows[i].lbm_ipc, rows[i].libq_ipc,
                    100 * rows[i].lbm_deg, 100 * rows[i].mix_deg);
    }

    // Inclusion victims scale with (eviction rate x resident-line
    // share), so they only become visible when the L3 is small
    // relative to the churner's insert rate; demonstrate with a
    // 2MB L3.
    sim::MachineConfig small_l3 = base;
    small_l3.l3 = sim::CacheConfig{"L3", 2 * 1024 * 1024, 16, 30};
    sim::MachineConfig small_l3_incl = small_l3;
    small_l3_incl.inclusiveL3 = true;

    const auto &mcf = workload::spec2006::byName("429.mcf");
    std::printf("\ninclusion victims (2MB L3, calculix vs mcf "
                "churn):\n");
    std::printf("  non-inclusive L3: calculix degradation %.1f%%\n",
                100 * pairDeg(sim::Machine(small_l3), calculix, mcf));
    std::printf("  inclusive L3:     calculix degradation %.1f%%\n",
                100 * pairDeg(sim::Machine(small_l3_incl), calculix,
                              mcf));

    std::printf(
        "\nreading: prefetching raises streaming solo IPC (less\n"
        "latency-bound) and typically deepens bandwidth contention "
        "in\nstreaming pairs. Inclusion victims are a second-order\n"
        "effect at these geometries: a churner evicting E lines/cycle"
        "\nfrom an L-line L3 invalidates a victim's private copy "
        "only\nwith probability (resident lines)/L per eviction, "
        "which for\nKB-scale hot sets amounts to well under 1%% extra "
        "misses\n(the mechanism itself is exercised by "
        "tests/test_machine_options.cpp).\n");

    bench::paperReference(
        "design-choice ablation beyond the paper: the paper's real "
        "machines had both features enabled in hardware");
    return 0;
}
