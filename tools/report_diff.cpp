/**
 * @file
 * Compare two bench run reports and flag regressions.
 *
 *   report_diff [--tol T] [--metrics] <a>.report.json <b>.report.json
 *
 * Exits 0 when the reports are equivalent (same name, same results
 * within tolerance, same partial/complete status), 1 with one line
 * per divergence on stdout when they differ, and 2 on usage or parse
 * errors. `--tol` sets the relative tolerance for numeric results
 * (default 1e-9 — simulated measurements are deterministic, so any
 * real drift is a regression); `--metrics` also compares the metrics
 * snapshot (noisy: replay hit counts change whenever the run log is
 * warm, so it is off by default). Timings are never compared.
 *
 * Typical CI use: run a harness before and after a change and diff
 * the two reports — a silent numeric drift fails the pipeline with
 * the exact path that moved.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/diff.h"
#include "obs/json.h"

namespace {

using smite::obs::json::Value;

int
usage()
{
    std::fprintf(stderr,
                 "usage: report_diff [--tol T] [--metrics] "
                 "<a>.report.json <b>.report.json\n");
    return 2;
}

bool
loadJson(const char *path, Value *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "report_diff: cannot open %s\n", path);
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!Value::parse(buffer.str(), out, &error)) {
        std::fprintf(stderr, "report_diff: %s: %s\n", path,
                     error.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    smite::obs::ReportDiffOptions opts;
    std::vector<const char *> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tol") {
            if (i + 1 >= argc)
                return usage();
            char *end = nullptr;
            opts.tolerance = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || opts.tolerance < 0.0)
                return usage();
        } else if (arg == "--metrics") {
            opts.include_metrics = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.size() != 2)
        return usage();

    Value a, b;
    if (!loadJson(files[0], &a) || !loadJson(files[1], &b))
        return 2;

    const std::vector<smite::obs::ReportDiffEntry> diffs =
        smite::obs::diffReports(a, b, opts);
    if (diffs.empty()) {
        std::printf("reports match (tolerance %g)\n", opts.tolerance);
        return 0;
    }
    for (const auto &d : diffs)
        std::printf("%s: %s\n", d.path.c_str(), d.detail.c_str());
    std::printf("%zu difference%s\n", diffs.size(),
                diffs.size() == 1 ? "" : "s");
    return 1;
}
