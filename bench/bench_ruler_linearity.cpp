/**
 * @file
 * Section III-B1 validation: the linear relationship between Ruler
 * intensity and the interference it causes.
 *
 *  - Memory rulers: working-set size vs the degradation of SPEC
 *    applications (the paper reports Pearson coefficients of 0.92
 *    for L1, 0.89 for L2 and 0.95 for L3).
 *  - FU rulers: duty cycle vs victim degradation within the
 *    unsaturated range.
 *
 * Every point is one Lab::rulerDegradation(), so the co-run and its
 * solo reference share the Lab's intervals.
 */

#include "bench/common.h"
#include "stats/correlation.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_ruler_linearity");
    bench::banner("Ruler linearity (Section III-B1)",
                  "Intensity vs induced degradation; Pearson r per "
                  "cache level");

    core::Lab lab = bench::makeLab(sim::MachineConfig::ivyBridge());
    const auto &config = lab.machine().config();

    // A spread of victims: cache-resident, L2-bound, memory-bound.
    const std::vector<std::string> victims = {
        "454.calculix", "453.povray", "401.bzip2", "447.dealII",
        "482.sphinx3", "471.omnetpp"};

    struct Level {
        rulers::Dimension dim;
        std::vector<std::uint64_t> workingSets;
        double paperPearson;
    };
    const std::vector<Level> levels = {
        {rulers::Dimension::kL1,
         {config.l1d.sizeBytes / 4, config.l1d.sizeBytes / 2,
          3 * config.l1d.sizeBytes / 4, config.l1d.sizeBytes},
         0.92},
        // The L2 sweep is anchored below the L1 capacity so every
        // victim sees the pressure ramp; the L3 sweep stays within
        // the filling regime (beyond ~the L3 size the ruler becomes
        // DRAM-bound and its private-cache pollution shrinks again,
        // leaving the linear range the paper exploits).
        {rulers::Dimension::kL2,
         {16 * 1024, config.l2.sizeBytes / 2,
          3 * config.l2.sizeBytes / 4, config.l2.sizeBytes},
         0.89},
        {rulers::Dimension::kL3,
         {config.l3.sizeBytes / 4, config.l3.sizeBytes / 2,
          3 * config.l3.sizeBytes / 4, config.l3.sizeBytes},
         0.95},
    };

    for (const Level &level : levels) {
        std::printf("\n%s ruler, working-set sweep:\n",
                    rulers::dimensionName(level.dim).data());
        double r_sum = 0.0;
        for (const auto &name : victims) {
            const auto &app = workload::spec2006::byName(name);
            std::vector<double> ws, deg;
            std::printf("  %-14s", name.c_str());
            for (std::uint64_t bytes : level.workingSets) {
                const rulers::Ruler ruler =
                    rulers::Ruler::memory(level.dim, bytes);
                const double d = lab.rulerDegradation(app, ruler);
                ws.push_back(static_cast<double>(bytes));
                deg.push_back(d);
                std::printf("  %4lluKB:%5.1f%%",
                            static_cast<unsigned long long>(bytes >> 10),
                            100 * d);
            }
            const double r = stats::pearson(ws, deg);
            r_sum += r;
            std::printf("   r=%.2f\n", r);
        }
        std::printf("  mean Pearson r = %.2f  (paper: %.2f)\n",
                    r_sum / victims.size(), level.paperPearson);
    }

    // FU ruler duty sweep in the unsaturated range.
    std::printf("\nFP_ADD ruler duty-cycle sweep (port-1-bound victim "
                "444.namd):\n");
    const auto &namd = workload::spec2006::byName("444.namd");
    std::vector<double> duty, deg;
    for (double d : {0.05, 0.10, 0.15, 0.20, 0.25}) {
        const rulers::Ruler ruler =
            rulers::Ruler::functionalUnit(rulers::Dimension::kFpAdd, d);
        const double x = lab.rulerDegradation(namd, ruler);
        duty.push_back(d);
        deg.push_back(x);
        std::printf("  duty %.2f -> degradation %5.1f%%\n", d, 100 * x);
    }
    std::printf("  Pearson r = %.2f\n", stats::pearson(duty, deg));

    bench::paperReference(
        "Pearson between working-set size and degradation: 0.92 (L1), "
        "0.89 (L2), 0.95 (L3); the linearity lets the sensitivity "
        "curve be interpolated from its endpoints");
    return 0;
}
