/**
 * @file
 * Compare two bench run reports and flag regressions.
 *
 *   report_diff <a>.report.json <b>.report.json
 *
 * Exits 0 when the reports are equivalent, 1 with one line per
 * divergence on stdout when they differ, and 2 on usage or parse
 * errors or a malformed gate. What "equivalent" means is the first
 * report's `gate` (obs/diff.h): each committed `BENCH_*.json`
 * carries the rules its harness declares, so `report_diff BASELINE
 * FRESH` applies them. Without a gate, `results` compare within a
 * relative 1e-9 (simulated measurements are deterministic, so any
 * real drift is a regression); `timings` and `metrics` are then not
 * compared.
 *
 * Typical CI use: run a harness before and after a change and diff
 * the two reports — a silent numeric drift fails the pipeline with
 * the exact path that moved.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
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
                 "usage: report_diff <a>.report.json <b>.report.json\n");
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
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-')
        return usage();

    Value a, b;
    if (!loadJson(argv[1], &a) || !loadJson(argv[2], &b))
        return 2;

    std::vector<smite::obs::ReportDiffEntry> diffs;
    try {
        diffs = smite::obs::diffReports(a, b);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "report_diff: %s\n", e.what());
        return 2;
    }
    if (diffs.empty()) {
        std::printf("reports match\n");
        return 0;
    }
    for (const auto &d : diffs)
        std::printf("%s: %s\n", d.path.c_str(), d.detail.c_str());
    std::printf("%zu difference%s\n", diffs.size(),
                diffs.size() == 1 ? "" : "s");
    return 1;
}
