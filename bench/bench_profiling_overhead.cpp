/**
 * @file
 * Section III-B1 / III-D: the profiling-overhead study.
 *
 * The paper's low-overhead claim rests on Ruler linearity: instead
 * of sweeping every intensity, the sensitivity curve is interpolated
 * from two or three samples. This harness measures dense memory
 * sensitivity curves, rebuilds them from 2- and 3-point sparse
 * samples, and reports the interpolation error and the profiling
 * speed-up. Every curve point is one Lab::rulerDegradation() on the
 * shared run log.
 */

#include "bench/common.h"
#include "core/sensitivity_curve.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_profiling_overhead");
    bench::banner("Profiling overhead (Section III-B1 / III-D)",
                  "Dense sensitivity sweeps vs 2/3-point "
                  "interpolation");

    core::Lab lab = bench::makeLab(sim::MachineConfig::ivyBridge());
    const auto &config = lab.machine().config();

    const std::vector<std::string> victims = {
        "454.calculix", "401.bzip2", "447.dealII", "482.sphinx3"};

    struct Level {
        rulers::Dimension dim;
        std::vector<std::uint64_t> denseSweep;
    };
    const std::vector<Level> levels = {
        {rulers::Dimension::kL1,
         {4096, 8192, 12288, 16384, 20480, 24576, 28672, 32768}},
        {rulers::Dimension::kL2,
         {32768, 65536, 98304, 131072, 163840, 196608, 229376,
          262144}},
        {rulers::Dimension::kL3,
         {config.l3.sizeBytes / 4, config.l3.sizeBytes / 2,
          3 * config.l3.sizeBytes / 4, config.l3.sizeBytes,
          5 * config.l3.sizeBytes / 4, 3 * config.l3.sizeBytes / 2,
          7 * config.l3.sizeBytes / 4, 2 * config.l3.sizeBytes}},
    };

    double worst2 = 0, worst3 = 0;
    for (const Level &level : levels) {
        std::printf("\n%s ruler (dense sweep: %zu points):\n",
                    rulers::dimensionName(level.dim).data(),
                    level.denseSweep.size());
        std::printf("  %-14s %16s %16s\n", "victim",
                    "2-point MAE", "3-point MAE");
        for (const auto &name : victims) {
            const auto &app = workload::spec2006::byName(name);
            const core::SensitivityCurve dense =
                core::memoryCurve(lab, app, level.dim, level.denseSweep);
            const double err2 =
                dense.meanAbsoluteError(dense.sparsified(2));
            const double err3 =
                dense.meanAbsoluteError(dense.sparsified(3));
            worst2 = std::max(worst2, err2);
            worst3 = std::max(worst3, err3);
            std::printf("  %-14s %15.2f%% %15.2f%%\n", name.c_str(),
                        100 * err2, 100 * err3);
        }
    }

    std::printf("\nworst-case interpolation error: 2-point %.2f%%, "
                "3-point %.2f%%\n", 100 * worst2, 100 * worst3);
    std::printf("profiling cost: dense sweep = 8 co-location runs "
                "per (app, level);\n"
                "interpolation needs 2-3 — a %0.1fx-%.1fx reduction, "
                "keeping per-application\ncharacterization in the "
                "order of seconds (Section III-D).\n",
                8.0 / 3.0, 8.0 / 2.0);

    bench::paperReference(
        "the linear intensity-interference relationship lets the "
        "entire sensitivity curve be approximated by interpolating "
        "between Rulers sized to the L1, L2 and L3 caches");
    return 0;
}
