// The v2 analyzer's suite: symbol-aware rule families (guarded-by,
// parallel-capture, nested-parallel, determinism-flow, unit-flow)
// against seeded fixtures under lint_fixtures/sema|sim|xindex, run
// through the same driver the CLI uses so cross-file index merging and
// the incremental result cache are exercised end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "lint/cache.hpp"
#include "lint/driver.hpp"
#include "lint/lint.hpp"

using mosaiq::lint::DriverOptions;
using mosaiq::lint::DriverStats;
using mosaiq::lint::Finding;
using mosaiq::lint::run_driver;

namespace {

std::vector<Finding> drive(const std::vector<std::string>& names,
                           const std::vector<std::string>& rules) {
  std::vector<std::string> paths;
  for (const std::string& n : names) paths.push_back(std::string(LINT_FIXTURES_DIR "/") + n);
  DriverOptions opt;
  opt.rules = rules;
  return run_driver(paths, opt);
}

std::vector<std::size_t> lines_of(const std::vector<Finding>& fs, const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const Finding& f : fs) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

TEST(LintGuardedBy, FlagsUnlockedAccessAndUnannotatedMember) {
  const auto fs = drive({"sema/guarded_by_violation.cpp"}, {"guarded-by"});
  const auto lines = lines_of(fs, "guarded-by");
  ASSERT_EQ(lines.size(), 2u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 13u);  // ++hits_ without mu_
  EXPECT_EQ(lines[1], 23u);  // misses_ names no lock
  EXPECT_NE(fs[0].message.find("MOSAIQ_REQUIRES"), std::string::npos) << fs[0].message;
  EXPECT_NE(fs[1].message.find("MOSAIQ_THREAD_SAFE"), std::string::npos) << fs[1].message;
}

TEST(LintGuardedBy, LockedRequiresAtomicAndConstPass) {
  EXPECT_TRUE(drive({"sema/guarded_by_clean.cpp"}, {"guarded-by"}).empty());
}

TEST(LintParallelCapture, FlagsStaticGlobalAndMemberMutations) {
  const auto fs = drive({"sema/parallel_capture_violation.cpp"}, {"parallel-capture"});
  const auto lines = lines_of(fs, "parallel-capture");
  ASSERT_EQ(lines.size(), 4u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 26u);  // function-static
  EXPECT_EQ(lines[1], 27u);  // global
  EXPECT_EQ(lines[2], 28u);  // unguarded member
  EXPECT_EQ(lines[3], 29u);  // guarded member, lock not taken in the lambda
}

TEST(LintParallelCapture, LocalsAndLockedMutationsPass) {
  EXPECT_TRUE(drive({"sema/parallel_capture_clean.cpp"}, {"parallel-capture"}).empty());
}

TEST(LintNestedParallel, FlagsDirectAndTransitiveSubmissions) {
  const auto fs = drive({"sema/nested_parallel_violation.cpp"}, {"nested-parallel"});
  const auto lines = lines_of(fs, "nested-parallel");
  ASSERT_EQ(lines.size(), 2u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 15u);  // direct nested parallel_map
  EXPECT_EQ(lines[1], 22u);  // via inner_sweep
  EXPECT_NE(fs[1].message.find("inner_sweep"), std::string::npos) << fs[1].message;
}

TEST(LintNestedParallel, SequentialHelpersPass) {
  EXPECT_TRUE(drive({"sema/nested_parallel_clean.cpp"}, {"nested-parallel"}).empty());
}

TEST(LintDeterminismFlow, FlagsClockSeedPointerSortAndUnorderedCopy) {
  const auto fs = drive({"sema/determinism_flow_violation.cpp"}, {"determinism-flow"});
  const auto lines = lines_of(fs, "determinism-flow");
  ASSERT_EQ(lines.size(), 4u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 14u);  // chrono-seeded std engine
  EXPECT_EQ(lines[1], 20u);  // chrono-seeded lazy engine
  EXPECT_EQ(lines[2], 27u);  // pointer-value comparator
  EXPECT_EQ(lines[3], 31u);  // begin()/end() copy of an unordered set
}

TEST(LintDeterminismFlow, SeededSortedAndKeyedPass) {
  EXPECT_TRUE(drive({"sema/determinism_flow_clean.cpp"}, {"determinism-flow"}).empty());
}

TEST(LintUnitFlow, FlagsDimensionMismatchesInQuantityDirs) {
  const auto fs = drive({"sim/unit_flow_violation.cpp"}, {"unit-flow"});
  const auto lines = lines_of(fs, "unit-flow");
  ASSERT_EQ(lines.size(), 3u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 6u);   // seconds assigned to joules
  EXPECT_EQ(lines[1], 11u);  // ms + s
  EXPECT_EQ(lines[2], 15u);  // watts accumulated into joules
  EXPECT_NE(fs[0].message.find("named helper"), std::string::npos) << fs[0].message;
}

TEST(LintUnitFlow, ConsistentDimensionsAndHelpersPass) {
  EXPECT_TRUE(drive({"sim/unit_flow_clean.cpp"}, {"unit-flow"}).empty());
}

TEST(LintCrossFile, HeaderAnnotationsReachTheCpp) {
  const auto fs = drive({"xindex/guarded_decl.hpp", "xindex/guarded_use.cpp"},
                        {"guarded-by", "determinism-flow"});
  ASSERT_EQ(fs.size(), 2u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(fs[0].rule, "guarded-by");
  EXPECT_EQ(fs[0].line, 17u);  // total() without mu_; annotation in the header
  EXPECT_EQ(fs[1].rule, "determinism-flow");
  EXPECT_EQ(fs[1].line, 22u);  // range-for over the header's unordered member
  EXPECT_NE(fs[1].message.find("guarded_decl.hpp"), std::string::npos) << fs[1].message;
}

TEST(LintCrossFile, AloneTheCppIsQuiet) {
  // Without the header in the run, the index has no annotations to
  // check against: conservative silence, not guesses.
  EXPECT_TRUE(
      drive({"xindex/guarded_use.cpp"}, {"guarded-by", "determinism-flow"}).empty());
}

// --- incremental cache -----------------------------------------------------

class LintCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps this binary's whole-run ctest and its per-case
    // ctests apart when they run concurrently.  The pointer only
    // decorates the name; sanitizer allocators are deterministic, so
    // the directory CAN repeat across ctest runs — every file a test
    // reads is rewritten or removed here.
    dir_ = ::testing::TempDir() + "lint_cache_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    ASSERT_EQ(std::system(("mkdir -p " + dir_).c_str()), 0);
    write("a.cpp", "double f(double elapsed_s) { return elapsed_s; }\n");
    write("b.cpp", "long g(long x) { return x + 1; }\n");
    cache_path_ = dir_ + "/cache.txt";
    std::remove(cache_path_.c_str());
  }

  void write(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ + "/" + name, std::ios::trunc);
    out << text;
  }

  DriverStats run() {
    DriverOptions opt;
    opt.cache_path = cache_path_;
    DriverStats stats;
    run_driver({dir_ + "/a.cpp", dir_ + "/b.cpp"}, opt, &stats);
    return stats;
  }

  std::string dir_;
  std::string cache_path_;
};

TEST_F(LintCacheTest, SecondRunHitsEveryFile) {
  const DriverStats cold = run();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 2u);
  const DriverStats warm = run();
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_misses, 0u);
}

TEST_F(LintCacheTest, EditedFileMissesOthersStillHit) {
  run();
  write("b.cpp", "long g(long x) { return x + 2; }\n");
  const DriverStats after = run();
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.cache_misses, 1u);
}

TEST_F(LintCacheTest, AnnotationEditInvalidatesTheWholeProgram) {
  run();
  // New guarded field changes the cross-file index digest: every file's
  // key changes, even untouched b.cpp.
  write("a.cpp",
        "class C { int mu_; int x_ MOSAIQ_GUARDED_BY(mu_) = 0; };\n"
        "double f(double elapsed_s) { return elapsed_s; }\n");
  const DriverStats after = run();
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, 2u);
}

TEST_F(LintCacheTest, MalformedCacheIsDiscardedWholesale) {
  run();
  std::ofstream out(cache_path_, std::ios::trunc);
  out << "not a cache\ngarbage\n";
  out.close();
  const DriverStats after = run();
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, 2u);
}

TEST(LintCacheKey, RuleFilterAndVersionAreKeyed) {
  const auto f = mosaiq::lint::analyze("k.cpp", "int x = 1;\n");
  const auto base = mosaiq::lint::cache_key(f, {}, 7);
  EXPECT_NE(base, mosaiq::lint::cache_key(f, {"guarded-by"}, 7));
  EXPECT_NE(base, mosaiq::lint::cache_key(f, {}, 8));
}

}  // namespace
