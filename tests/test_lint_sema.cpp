// The v2 analyzer's suite: symbol-aware rule families (guarded-by,
// parallel-capture, nested-parallel, determinism-flow, unit-flow)
// against seeded fixtures under lint_fixtures/sema|sim|xindex, run
// through the same one-program pass the CLI uses (analyze_program) so
// cross-file index merging is exercised end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/lint.hpp"

using mosaiq::lint::analyze_program;
using mosaiq::lint::Finding;

namespace {

std::vector<Finding> drive(const std::vector<std::string>& names,
                           const std::vector<std::string>& rules) {
  std::vector<std::string> paths;
  for (const std::string& n : names) paths.push_back(std::string(LINT_FIXTURES_DIR "/") + n);
  return analyze_program(paths, rules);
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

}  // namespace
