/**
 * @file
 * Tests for the Lab's persistence: the run log (sim::RunLog) that
 * carries simulator runs across processes, and the stream identities
 * that key them in the process-wide ReplayStore.
 *
 * Every test that reloads a log writes it in a child process (a gtest
 * EXPECT_EXIT statement, re-executed in a fresh process by the
 * "threadsafe" death-test style), so the reloading process's
 * ReplayStore has never seen those runs and everything it replays
 * comes from the file. Expected values are live recomputes with
 * replay disabled.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "fault/fault.h"
#include "fault/keyed.h"
#include "obs/metrics.h"
#include "sim/replay.h"
#include "workload/cloudsuite.h"
#include "workload/generator.h"
#include "workload/spec2006.h"

namespace smite::core {
namespace {

const sim::MachineConfig kIvb = sim::MachineConfig::ivyBridge();
const sim::MachineConfig kSnb = sim::MachineConfig::sandyBridgeEN();

/** A fresh log path under the temp directory. */
std::string
freshLog(const char *name)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    std::remove(path.c_str());
    return path;
}

std::uint64_t
counter(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/** Restore the process-wide replay switch on scope exit. */
struct ReplayGuard {
    explicit ReplayGuard(bool on) : prev(sim::setReplayEnabled(on)) {}
    ~ReplayGuard() { sim::setReplayEnabled(prev); }
    bool prev;
};

/**
 * Run @p write in a child process. The "threadsafe" style re-executes
 * this test binary for the child, so it starts with an empty store
 * and its own thread pool.
 */
void
writeInChild(const std::function<void()> &write)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            write();
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

// (1) A profile edited under its old name must not reuse the runs of
// the original profile.
TEST(LabCache, EditedProfileIsNotServedStale)
{
    const std::string path = freshLog("smite_runlog_edit.txt");
    const auto &original = workload::spec2006::byName("429.mcf");
    writeInChild([&] { Lab(kIvb, path, 800, 2'000).soloIpc(original); });

    workload::WorkloadProfile edited = original;
    edited.hotProb *= 0.5;
    const double served = Lab(kIvb, path, 800, 2'000).soloIpc(edited);

    ReplayGuard off(false);
    const double fresh = Lab(kIvb, 800, 2'000).soloIpc(edited);
    ASSERT_NE(fresh, Lab(kIvb, 800, 2'000).soloIpc(original));
    EXPECT_EQ(served, fresh);
    std::remove(path.c_str());
}

// (2) The other Table 1 machine on the same path must not reuse the
// first machine's runs.
TEST(LabCache, OtherMachineIsNotServedStale)
{
    const std::string path = freshLog("smite_runlog_machine.txt");
    const auto &a = workload::spec2006::byName("453.povray");
    const auto &b = workload::spec2006::byName("433.milc");
    const auto mode = CoLocationMode::kSmt;
    writeInChild(
        [&] { Lab(kIvb, path, 810, 2'000).pairDegradation(a, b, mode); });

    const double served =
        Lab(kSnb, path, 810, 2'000).pairDegradation(a, b, mode);

    ReplayGuard off(false);
    const double fresh = Lab(kSnb, 810, 2'000).pairDegradation(a, b, mode);
    ASSERT_NE(fresh, Lab(kIvb, 810, 2'000).pairDegradation(a, b, mode));
    EXPECT_EQ(served, fresh);
    std::remove(path.c_str());
}

// (3) Other intervals on the same path must not reuse the runs.
TEST(LabCache, OtherIntervalsAreNotServedStale)
{
    const std::string path = freshLog("smite_runlog_interval.txt");
    const auto &app = workload::spec2006::byName("429.mcf");
    writeInChild([&] { Lab(kIvb, path, 820, 2'000).soloIpc(app); });

    const double served = Lab(kIvb, path, 1'640, 4'000).soloIpc(app);

    ReplayGuard off(false);
    const double fresh = Lab(kIvb, 1'640, 4'000).soloIpc(app);
    ASSERT_NE(fresh, Lab(kIvb, 820, 2'000).soloIpc(app));
    EXPECT_EQ(served, fresh);
    std::remove(path.c_str());
}

/** Every value the round-trip tests compare. */
struct Measured {
    double solo = 0;
    double forward = 0;
    double backward = 0;
    PmuProfile pmu{};
    Characterization chr;
};

Measured
measure(Lab &lab,
        const workload::WorkloadProfile &a =
            workload::spec2006::byName("453.povray"))
{
    const auto &b = workload::spec2006::byName("433.milc");
    const auto mode = CoLocationMode::kSmt;
    Measured m;
    m.solo = lab.soloIpc(a);
    m.forward = lab.pairDegradation(a, b, mode);
    m.backward = lab.pairDegradation(b, a, mode);
    m.pmu = lab.pmuProfile(a);
    m.chr = lab.characterization(a, mode);
    return m;
}

void
expectSame(const Measured &got, const Measured &want)
{
    EXPECT_EQ(got.solo, want.solo);
    EXPECT_EQ(got.forward, want.forward);
    EXPECT_EQ(got.backward, want.backward);
    EXPECT_EQ(got.pmu, want.pmu);
    EXPECT_EQ(got.chr.sensitivity, want.chr.sensitivity);
    EXPECT_EQ(got.chr.contentiousness, want.chr.contentiousness);
}

// One Lab asked about a profile edited under its old name measures the
// edit rather than replaying the original's runs.
TEST(LabCache, EditedProfileIsNotServedStaleWithinOneLab)
{
    const auto &original = workload::spec2006::byName("429.mcf");
    workload::WorkloadProfile edited = original;
    edited.hotProb *= 0.5;

    Lab lab(kIvb, 800, 2'000);
    const Measured before = measure(lab, original);
    const Measured served = measure(lab, edited);

    ReplayGuard off(false);
    Lab live(kIvb, 800, 2'000);
    const Measured fresh = measure(live, edited);
    ASSERT_NE(fresh.solo, before.solo);
    ASSERT_NE(fresh.forward, before.forward);
    expectSame(served, fresh);
}

// Runs are keyed on stream digests (the profile digest plus the seed);
// the logged digests must never move, or every existing run log would
// be orphaned.
TEST(LabCache, StreamDigestsKeepRunLogKeys)
{
    EXPECT_EQ(workload::ProfileUopSource(
                  workload::spec2006::byName("429.mcf"), 1)
                  .streamDigest(),
              0xfdc396e85da10188ull);
    EXPECT_EQ(workload::ProfileUopSource(
                  workload::cloudsuite::byName("Web-Search"), 3)
                  .streamDigest(),
              0xa55c457f2b40a7f7ull);
}

// (4) A reloading process replays every run from the file.
TEST(LabCache, ReloadReplaysEveryRun)
{
    const std::string path = freshLog("smite_runlog_reload.txt");
    writeInChild([&] {
        Lab lab(kIvb, path, 830, 2'000);
        measure(lab);
    });

    const std::uint64_t preloaded0 = counter("machine.replay.preloaded");
    const std::uint64_t misses0 = counter("machine.replay.misses");
    Lab reloaded(kIvb, path, 830, 2'000);
    EXPECT_GT(counter("machine.replay.preloaded"), preloaded0);
    const Measured got = measure(reloaded);
    EXPECT_EQ(counter("machine.replay.misses"), misses0);

    ReplayGuard off(false);
    Lab live(kIvb, 830, 2'000);
    expectSame(got, measure(live));
    std::remove(path.c_str());
}

// (5) Garbage, an overflowing placement count and a torn last line
// are skipped with file:line warnings; the intact records still
// replay.
TEST(LabCache, SkipsMalformedLinesWithLocation)
{
    const std::string path = freshLog("smite_runlog_bad.txt");
    const auto &app = workload::spec2006::byName("456.hmmer");
    writeInChild([&] { Lab(kIvb, path, 840, 2'000).soloIpc(app); });

    // A correctly digested 7-word line whose placement count 2^63
    // wraps (3 + block words) * count around to 0 in 64 bits.
    std::string overflow;
    fault::Digest digest;
    for (const std::uint64_t word :
         {1ull, 2ull, 3ull, 9223372036854775808ull, 5ull, 6ull}) {
        overflow += std::to_string(word) + " ";
        digest.u64(word);
    }
    overflow += std::to_string(digest.value());

    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);  // version line + one solo run
    {
        std::ofstream out(path, std::ios::app);
        out << "garbage line\n";
        out << "1 2 3\n";
        out << overflow << "\n";
        out << lines[1].substr(0, lines[1].size() / 2);  // torn
    }

    const std::uint64_t misses0 = counter("machine.replay.misses");
    testing::internal::CaptureStderr();
    Lab reloaded(kIvb, path, 840, 2'000);
    const std::string warnings = testing::internal::GetCapturedStderr();
    for (const int lineno : {3, 4, 5, 6})
        EXPECT_NE(warnings.find(path + ":" + std::to_string(lineno)),
                  std::string::npos)
            << warnings;
    EXPECT_EQ(warnings.find(path + ":2"), std::string::npos) << warnings;
    const double served = reloaded.soloIpc(app);
    EXPECT_EQ(counter("machine.replay.misses"), misses0);

    ReplayGuard off(false);
    EXPECT_EQ(served, Lab(kIvb, 840, 2'000).soloIpc(app));
    std::remove(path.c_str());
}

// (6) A Lab without a path writes nothing.
TEST(LabCache, NoPathCreatesNoFile)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "smite_runlog_none";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir);
    Lab(kIvb, 850, 2'000).soloIpc(workload::spec2006::byName("456.hmmer"));
    std::filesystem::current_path(cwd);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

// A file headed by another version is treated as absent: nothing is
// preloaded, and the first append starts the file afresh.
TEST(LabCache, OtherVersionIsIgnoredAndRestarted)
{
    const std::string path = freshLog("smite_runlog_version.txt");
    const auto &app = workload::spec2006::byName("470.lbm");
    writeInChild([&] { Lab(kIvb, path, 860, 2'000).soloIpc(app); });

    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    const std::string version = lines[0];
    {
        std::ofstream out(path, std::ios::trunc);
        out << "smite-replay v0\n" << lines[1] << "\n";
    }

    const std::uint64_t preloaded0 = counter("machine.replay.preloaded");
    const std::uint64_t misses0 = counter("machine.replay.misses");
    Lab reloaded(kIvb, path, 860, 2'000);
    EXPECT_EQ(counter("machine.replay.preloaded"), preloaded0);
    reloaded.soloIpc(app);
    EXPECT_EQ(counter("machine.replay.misses"), misses0 + 1);

    // The live run's append rewrote the file: current version line,
    // then only the new record.
    EXPECT_EQ(readLines(path), (std::vector<std::string>{version, lines[1]}));
    std::remove(path.c_str());
}

// `disk.corrupt` round trip: a log written with some appends damaged
// reloads to exactly the live values, replaying the intact records.
TEST(LabCache, CorruptAppendsRoundTrip)
{
    const std::string path = freshLog("smite_runlog_corrupt.txt");
    std::vector<workload::WorkloadProfile> profiles;
    for (const char *name :
         {"456.hmmer", "470.lbm", "429.mcf", "453.povray"})
        profiles.push_back(workload::spec2006::byName(name));
    const auto mode = CoLocationMode::kSmt;
    const auto run = [&](Lab &lab) {
        return std::make_pair(lab.characterizeAll(profiles, mode),
                              lab.measureAllPairs(profiles, mode));
    };
    writeInChild([&] {
        fault::SiteSpec spec;
        spec.probability = 0.3;
        spec.seed = 5;
        fault::FaultPlan::global().arm("disk.corrupt", spec);
        Lab lab(kIvb, path, 870, 2'000);
        run(lab);
    });

    const std::size_t records = readLines(path).size() - 1;
    const std::uint64_t preloaded0 = counter("machine.replay.preloaded");
    testing::internal::CaptureStderr();
    Lab reloaded(kIvb, path, 870, 2'000);
    testing::internal::GetCapturedStderr();
    const std::uint64_t preloaded =
        counter("machine.replay.preloaded") - preloaded0;
    EXPECT_GT(preloaded, 0u);
    EXPECT_LT(preloaded, records);
    const auto got = run(reloaded);

    ReplayGuard off(false);
    Lab live(kIvb, 870, 2'000);
    const auto want = run(live);
    ASSERT_EQ(got.first.size(), want.first.size());
    for (std::size_t i = 0; i < want.first.size(); ++i) {
        SCOPED_TRACE(profiles[i].name);
        EXPECT_EQ(got.first[i].sensitivity, want.first[i].sensitivity);
        EXPECT_EQ(got.first[i].contentiousness,
                  want.first[i].contentiousness);
    }
    EXPECT_EQ(got.second, want.second);
    std::remove(path.c_str());
}

} // namespace
} // namespace smite::core
