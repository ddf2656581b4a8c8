// mosaiq-lint's own test suite: each rule family is exercised against a
// fixture file with seeded violations, asserting the exact rule names
// and lines, plus the suppression mechanics and a clean file.  The CLI
// exit-code contract is covered by the lint_cli_* ctest entries
// (tools/lint/CMakeLists.txt); everything here runs in-process against
// the lint core.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.hpp"

using mosaiq::lint::analyze;
using mosaiq::lint::analyze_file;
using mosaiq::lint::Finding;
using mosaiq::lint::registry;
using mosaiq::lint::run_rules;

namespace {

std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::vector<std::string>& rules = {}) {
  std::vector<Finding> findings;
  run_rules(analyze_file(std::string(LINT_FIXTURES_DIR "/") + name), rules, findings);
  return findings;
}

std::vector<std::size_t> lines_of(const std::vector<Finding>& fs, const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const Finding& f : fs) {
    if (f.rule == rule) lines.push_back(f.line);
  }
  return lines;
}

TEST(LintRegistry, HasTheTwelveRuleFamilies) {
  std::vector<std::string> names;
  for (const auto& r : registry()) names.push_back(r.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"include-hygiene", "unsigned-wrap", "determinism",
                                      "unit-suffix", "guarded-by", "parallel-capture",
                                      "nested-parallel", "determinism-flow", "unit-flow",
                                      "lockset", "rng-stream-balance", "energy-ledger"}));
}

TEST(LintIncludeHygiene, FlagsEachMissingHeaderOnce) {
  const auto fs = lint_fixture("include_hygiene_violation.hpp");
  ASSERT_EQ(fs.size(), 3u);
  for (const Finding& f : fs) EXPECT_EQ(f.rule, "include-hygiene");
  EXPECT_NE(fs[0].message.find("<cstdint>"), std::string::npos) << fs[0].message;
  EXPECT_NE(fs[1].message.find("<algorithm>"), std::string::npos) << fs[1].message;
  EXPECT_NE(fs[2].message.find("<limits>"), std::string::npos) << fs[2].message;
}

TEST(LintIncludeHygiene, CleanWhenDirectlyIncluded) {
  EXPECT_TRUE(lint_fixture("include_hygiene_clean.hpp").empty());
}

TEST(LintIncludeHygiene, OnlyAppliesToHeaders) {
  // Same body as the violating header, but as a .cpp: out of scope.
  auto f = analyze("copy.cpp",
                   "std::uint32_t x = std::numeric_limits<std::uint32_t>::max();\n");
  std::vector<Finding> findings;
  run_rules(f, {"include-hygiene"}, findings);
  EXPECT_TRUE(findings.empty());
}

TEST(LintUnsignedWrap, FlagsUnguardedSparesGuardedAndClamped) {
  const auto fs = lint_fixture("unsigned_wrap_violation.cpp");
  const auto lines = lines_of(fs, "unsigned-wrap");
  ASSERT_EQ(lines.size(), 2u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(fs.size(), 2u);  // nothing but unsigned-wrap fires here
  // BAD sites only: the guarded and std::min-clamped subtractions pass.
  EXPECT_EQ(lines[0], 14u);
  EXPECT_EQ(lines[1], 32u);
}

TEST(LintUnsignedWrap, DigitSeparatorsDoNotHideTheRestOfTheFile) {
  // A lone digit separator once opened a char literal that swallowed
  // every later line, so nothing after it was checked.
  auto f = analyze("sep.cpp",
                   "constexpr std::uint64_t kBase = 0x0010'0000ull;\n"
                   "std::uint64_t span(std::uint64_t first, std::uint64_t last) {\n"
                   "  return last - first;\n"
                   "}\n");
  std::vector<Finding> findings;
  run_rules(f, {"unsigned-wrap"}, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintDeterminism, FlagsSourcesAndUnorderedIteration) {
  const auto fs = lint_fixture("determinism_violation.cpp");
  const auto lines = lines_of(fs, "determinism");
  ASSERT_EQ(lines.size(), 4u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(fs.size(), 4u);
  EXPECT_EQ(lines[0], 12u);  // std::rand()
  EXPECT_EQ(lines[1], 16u);  // std::random_device
  EXPECT_EQ(lines[2], 21u);  // time(nullptr)
  EXPECT_EQ(lines[3], 26u);  // range-for over unordered_set
}

TEST(LintDeterminism, SeededWorkloadGenerationIsExempt) {
  auto f = analyze("src/workload/query_gen.cpp", "unsigned s() { return std::random_device{}(); }\n");
  std::vector<Finding> findings;
  run_rules(f, {"determinism"}, findings);
  EXPECT_TRUE(findings.empty());
}

TEST(LintUnitSuffix, FlagsBareQuantitiesInScopedDirs) {
  const auto fs = lint_fixture("sim/unit_suffix_violation.cpp");
  const auto lines = lines_of(fs, "unit-suffix");
  ASSERT_EQ(lines.size(), 3u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_EQ(lines[0], 9u);   // energy
  EXPECT_EQ(lines[1], 10u);  // total_power
  EXPECT_EQ(lines[2], 11u);  // bandwidth
}

TEST(LintUnitSuffix, OutOfScopeDirsPass) {
  auto f = analyze("src/rtree/whatever.cpp", "double energy = 1.0;\n");
  std::vector<Finding> findings;
  run_rules(f, {"unit-suffix"}, findings);
  EXPECT_TRUE(findings.empty());
}

TEST(LintSuppression, TrailingStandaloneAndFileWideAllCover) {
  EXPECT_TRUE(lint_fixture("suppressed.cpp").empty());
}

TEST(LintSuppression, OnlyNamedRuleIsSuppressed) {
  auto f = analyze(
      "x.cpp",
      "std::uint64_t d(std::uint64_t a_bytes, std::uint64_t b_bytes) {\n"
      "  return a_bytes - b_bytes;  // mosaiq-lint: allow(determinism)\n"
      "}\n");
  std::vector<Finding> findings;
  run_rules(f, {}, findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unsigned-wrap");
}

TEST(LintClean, CleanFileHasNoFindings) {
  EXPECT_TRUE(lint_fixture("clean.cpp").empty());
}

TEST(LintReport, JsonAndHumanFormats) {
  std::vector<Finding> fs = {{"unsigned-wrap", "a.cpp", 3, "msg \"quoted\""}};
  EXPECT_EQ(mosaiq::lint::format_human(fs), "a.cpp:3: [unsigned-wrap] msg \"quoted\"\n");
  const std::string json = mosaiq::lint::format_json(fs);
  EXPECT_NE(json.find("\"rule\":\"unsigned-wrap\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("msg \\\"quoted\\\""), std::string::npos) << json;
  EXPECT_EQ(mosaiq::lint::format_json({}), "[]\n");
}

TEST(LintCollect, GathersSortedSources) {
  const auto files = mosaiq::lint::collect_sources({LINT_FIXTURES_DIR});
  ASSERT_GE(files.size(), 6u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
}

}  // namespace
