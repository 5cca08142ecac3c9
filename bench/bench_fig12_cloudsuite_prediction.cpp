/**
 * @file
 * Figure 12: prediction accuracy for CloudSuite applications
 * co-located with SPEC batch applications on the Sandy Bridge-EN
 * server (paper Section IV-B2).
 *
 * Protocol: the latency-sensitive application runs 6 threads (SMT
 * experiment; one per core, siblings idle) or 3 threads (CMP
 * experiment; three cores idle). 1..6 (SMT) or 1..3 (CMP) instances
 * of a batch application fill the idle contexts/cores. Models are
 * trained on the odd-numbered SPEC benchmarks and tested on
 * co-locations with the even-numbered ones.
 */

#include "bench/common.h"
#include "core/parallel.h"

using namespace smite;

namespace {

void
runMode(core::Lab &lab, core::CoLocationMode mode, int threads,
        double paper_smite, double paper_pmu)
{
    const auto train = workload::spec2006::oddNumbered();
    const auto test = workload::spec2006::evenNumbered();

    std::printf("\n--- %s co-location: %d latency threads, 1..%d "
                "batch instances ---\n", core::modeName(mode), threads,
                threads);
    const core::TrainingCorpus corpus =
        core::trainingCorpus(lab, train, mode);
    const core::Predictor smite =
        core::Predictor::train(core::PredictorKind::kSmite, corpus.samples);
    const core::Predictor pmu =
        core::Predictor::train(core::PredictorKind::kPmu, corpus.samples);

    // Fan out everything the reporting loop needs: test-set and
    // CloudSuite signatures, and the full (latency app, batch,
    // instance-count) measurement grid — all independent simulations.
    const auto clouds = workload::cloudsuite::all();
    const std::vector<core::WorkloadSignature> test_sigs =
        core::signaturesOf(lab, test, mode);
    const std::vector<core::WorkloadSignature> cloud_sigs =
        core::signaturesOf(lab, clouds, mode, threads);
    struct Task {
        const workload::WorkloadProfile *cloud;
        const workload::WorkloadProfile *batch;
        int instances;
    };
    std::vector<Task> grid;
    for (const auto &cloud : clouds) {
        for (const auto &batch : test) {
            for (int k = 1; k <= threads; ++k)
                grid.push_back(Task{&cloud, &batch, k});
        }
    }
    core::parallelFor(
        grid.size(),
        [&](std::size_t i) {
            lab.multiInstanceDegradation(*grid[i].cloud, threads,
                                         *grid[i].batch,
                                         grid[i].instances, mode);
        },
        lab.parallelism());

    std::printf("%-16s %8s %8s %8s %12s %10s\n", "latency app",
                "min deg", "avg deg", "max deg", "SMiTe err",
                "PMU err");
    double total_smite = 0, total_pmu = 0;
    for (std::size_t c = 0; c < clouds.size(); ++c) {
        const auto &cloud = clouds[c];
        double min_deg = 1e9, max_deg = -1e9, sum_deg = 0;
        double smite_err = 0, pmu_err = 0;
        int n = 0;
        for (std::size_t b = 0; b < test.size(); ++b) {
            const double pair_smite =
                smite.predictDegradation(cloud_sigs[c], test_sigs[b]);
            const double pair_pmu =
                pmu.predictDegradation(cloud_sigs[c], test_sigs[b]);
            for (int k = 1; k <= threads; ++k) {
                const double actual = lab.multiInstanceDegradation(
                    cloud, threads, test[b], k, mode);
                const double p_smite =
                    core::Lab::scaleToInstances(pair_smite, k, threads);
                const double p_pmu =
                    core::Lab::scaleToInstances(pair_pmu, k, threads);
                min_deg = std::min(min_deg, actual);
                max_deg = std::max(max_deg, actual);
                sum_deg += actual;
                smite_err += std::abs(p_smite - actual);
                pmu_err += std::abs(p_pmu - actual);
                ++n;
            }
        }
        std::printf("%-16s %7.1f%% %7.1f%% %7.1f%% %11.2f%% %9.2f%%\n",
                    cloud.name.c_str(), 100 * min_deg,
                    100 * sum_deg / n, 100 * max_deg,
                    100 * smite_err / n, 100 * pmu_err / n);
        total_smite += smite_err / n;
        total_pmu += pmu_err / n;
    }
    const double apps = 4.0;
    std::printf("%-16s %26s %11.2f%% %9.2f%%\n", "AVERAGE", "",
                100 * total_smite / apps, 100 * total_pmu / apps);
    std::printf("paper: SMiTe %.2f%% vs PMU %.2f%%\n", paper_smite,
                paper_pmu);
}

} // namespace

int
main()
{
    bench::ReportScope obs_scope("bench_fig12_cloudsuite_prediction");
    bench::banner("Figure 12",
                  "CloudSuite prediction accuracy on Sandy Bridge-EN "
                  "(SMiTe vs PMU baseline)");

    core::Lab lab = bench::makeLab(sim::MachineConfig::sandyBridgeEN());
    runMode(lab, core::CoLocationMode::kSmt, 6, 1.79, 17.45);
    runMode(lab, core::CoLocationMode::kCmp, 3, 1.36, 27.01);

    bench::paperReference(
        "PMU model: 17.45% (SMT) / 27.01% (CMP) average error; "
        "SMiTe: 1.79% / 1.36%");
    return 0;
}
