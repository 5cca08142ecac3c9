/**
 * @file
 * Baseline model selection (paper §IV-B1): "after experimenting
 * with a number of PMUs and various regression strategies including
 * linear regression, decision tree, higher order polynomial
 * regression, we found the best performing model to be a linear
 * regression model using 11 PMU measurements."
 *
 * This harness repeats that search on our substrate: the same 22 PMU
 * features (victim + aggressor solo rates) fed to a linear model, a
 * quadratic-expanded linear model, and a CART regression tree, all
 * trained on the even split and tested on the odd split.
 */

#include "bench/common.h"
#include "stats/decision_tree.h"

using namespace smite;

int
main()
{
    bench::ReportScope obs_scope("bench_baseline_selection");
    bench::banner("PMU baseline selection (Section IV-B1)",
                  "Linear vs quadratic vs decision-tree PMU models");

    core::Lab lab = bench::makeLab(sim::MachineConfig::ivyBridge());
    const auto mode = core::CoLocationMode::kSmt;
    const auto train = workload::spec2006::evenNumbered();
    const auto test = workload::spec2006::oddNumbered();

    auto dataset = [&](const std::vector<workload::WorkloadProfile> &apps) {
        // The PMU baseline reads nothing but a signature's solo rates.
        std::vector<core::WorkloadSignature> sigs(apps.size());
        for (std::size_t i = 0; i < apps.size(); ++i)
            sigs[i].pmu = lab.pmuProfile(apps[i]);
        std::pair<std::vector<std::vector<double>>,
                  std::vector<double>> data;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            for (std::size_t j = 0; j < apps.size(); ++j) {
                if (i == j)
                    continue;
                data.first.push_back(core::Predictor::features(
                    core::PredictorKind::kPmu, sigs[i], {&sigs[j]}));
                data.second.push_back(
                    lab.pairDegradation(apps[i], apps[j], mode));
            }
        }
        return data;
    };

    const auto [x_train, y_train] = dataset(train);
    const auto [x_test, y_test] = dataset(test);

    auto squared = [](const std::vector<std::vector<double>> &rows) {
        std::vector<std::vector<double>> out;
        out.reserve(rows.size());
        for (const auto &row : rows)
            out.push_back(stats::withSquares(row));
        return out;
    };

    const auto linear = stats::LinearModel::fit(x_train, y_train, 1e-6);
    const auto quadratic = stats::LinearModel::fit(
        squared(x_train), y_train, 1e-6);
    const auto tree = stats::RegressionTree::fit(x_train, y_train, 5, 4);

    std::printf("%-28s %12s %12s\n", "PMU model", "train MAE",
                "test MAE");
    std::printf("%-28s %11.2f%% %11.2f%%\n", "linear (Eq. 9)",
                100 * linear.meanAbsoluteError(x_train, y_train),
                100 * linear.meanAbsoluteError(x_test, y_test));
    std::printf("%-28s %11.2f%% %11.2f%%\n", "quadratic expansion",
                100 * quadratic.meanAbsoluteError(squared(x_train),
                                                  y_train),
                100 * quadratic.meanAbsoluteError(squared(x_test),
                                                  y_test));
    std::printf("%-28s %11.2f%% %11.2f%% (%d leaves)\n",
                "decision tree (CART)",
                100 * tree.meanAbsoluteError(x_train, y_train),
                100 * tree.meanAbsoluteError(x_test, y_test),
                tree.leafCount());

    bench::paperReference(
        "the paper selected the linear 11-PMU model as the strongest "
        "baseline after comparing regression strategies; expect the "
        "flexible models to fit the training pairs better but "
        "generalize worse");
    return 0;
}
