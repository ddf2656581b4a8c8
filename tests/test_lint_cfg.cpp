// The v3 analyzer's suite: CFG structure over the edge-case fixtures
// (switch fallthrough, do-while, try/catch, lambda-in-loop), the
// forward-dataflow engine, the path-sensitive rule families (lockset,
// rng-stream-balance, energy-ledger) against their violation/clean
// fixture twins, and the --fix edit engine end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/cfg.hpp"
#include "lint/dataflow.hpp"
#include "lint/fix.hpp"
#include "lint/lint.hpp"
#include "lint/sema.hpp"

using mosaiq::lint::analyze;
using mosaiq::lint::analyze_file;
using mosaiq::lint::analyze_program;
using mosaiq::lint::build_cfg;
using mosaiq::lint::build_sema;
using mosaiq::lint::Cfg;
using mosaiq::lint::Finding;
using mosaiq::lint::reachable_blocks;
using mosaiq::lint::run_rules;
using mosaiq::lint::Sema;
using mosaiq::lint::SourceFile;
using mosaiq::lint::TextEdit;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

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

/// Code index of the nth token (by text) in the file, or code.size().
std::size_t code_index(const SourceFile& f, const std::string& text, int nth = 0) {
  int seen = 0;
  for (std::size_t k = 0; k < f.code.size(); ++k) {
    if (f.tokens[f.code[k]].text == text && seen++ == nth) return k;
  }
  ADD_FAILURE() << "token '" << text << "' #" << nth << " not found in " << f.path;
  return f.code.size();
}

/// Block whose statement list covers code index k, or -1 (labels and
/// structural tokens belong to no statement).
int block_of(const Cfg& cfg, std::size_t k) {
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const auto& st : cfg.blocks[b].stmts) {
      if (st.begin <= k && k < st.end) return static_cast<int>(b);
    }
  }
  return -1;
}

bool has_edge(const Cfg& cfg, int a, int b) {
  if (a < 0 || b < 0) return false;
  const auto& s = cfg.blocks[static_cast<std::size_t>(a)].succs;
  return std::find(s.begin(), s.end(), b) != s.end();
}

struct FixtureCfg {
  SourceFile f;
  Sema s;
  Cfg cfg;
};

FixtureCfg cfg_of(const std::string& name, std::size_t fn = 0) {
  FixtureCfg out;
  out.f = analyze_file(std::string(LINT_FIXTURES_DIR "/") + name);
  out.s = build_sema(out.f);
  EXPECT_LT(fn, out.s.functions.size()) << name;
  const auto& body = out.s.functions[fn];
  out.cfg = build_cfg(out.f, body.body_begin, body.body_end);
  return out;
}

// ---------------------------------------------------------------------------
// CFG structure

TEST(LintCfg, SwitchFallthroughAndBreakEdges) {
  const auto x = cfg_of("cfg/switch_fallthrough.cpp");
  const int case0 = block_of(x.cfg, code_index(x.f, "score", 1));  // score = 1
  const int case1 = block_of(x.cfg, code_index(x.f, "score", 2));  // score += 2
  const int case2 = block_of(x.cfg, code_index(x.f, "score", 3));  // score = 10
  const int deflt = block_of(x.cfg, code_index(x.f, "score", 4));  // score = -1
  const int after = block_of(x.cfg, code_index(x.f, "score", 5));  // return score
  ASSERT_NE(case0, -1);
  ASSERT_NE(case1, -1);
  ASSERT_NE(case2, -1);
  ASSERT_NE(deflt, -1);
  ASSERT_NE(after, -1);
  EXPECT_NE(case0, case1);  // each case group gets its own block
  EXPECT_TRUE(has_edge(x.cfg, case0, case1)) << "fallthrough edge missing";
  EXPECT_FALSE(has_edge(x.cfg, case1, case2)) << "break must not fall through";
  // Every group is selectable from the header (the block holding the
  // selector statement), and break routes to the after block.
  const int header = block_of(x.cfg, code_index(x.f, "mode", 1));  // switch (mode)
  for (const int g : {case0, case1, case2, deflt}) {
    EXPECT_TRUE(has_edge(x.cfg, header, g)) << "case group not reachable from header";
  }
  const auto reach = reachable_blocks(x.cfg);
  for (const int g : {case0, case1, case2, deflt, after}) {
    EXPECT_TRUE(std::find(reach.begin(), reach.end(), g) != reach.end());
  }
}

TEST(LintCfg, DoWhileBodyRunsBeforeConditionWithBackEdge) {
  const auto x = cfg_of("cfg/do_while.cpp");
  const int body = block_of(x.cfg, code_index(x.f, "spins", 1));  // ++spins
  const int cond = block_of(x.cfg, code_index(x.f, "n", 2));      // while (n > 0)
  const int after = block_of(x.cfg, code_index(x.f, "spins", 3));  // return spins
  const int brk = block_of(x.cfg, code_index(x.f, "break"));
  ASSERT_NE(body, -1);
  ASSERT_NE(cond, -1);
  ASSERT_NE(after, -1);
  ASSERT_NE(brk, -1);
  EXPECT_TRUE(has_edge(x.cfg, cond, body)) << "do-while back edge missing";
  EXPECT_TRUE(has_edge(x.cfg, cond, after));
  EXPECT_TRUE(has_edge(x.cfg, brk, after)) << "break must target the after block";
  // Entry reaches the body without passing the condition first: the
  // condition block must not sit between entry and the body.
  EXPECT_TRUE(has_edge(x.cfg, x.cfg.entry, body));
}

TEST(LintCfg, TryCatchHandlersJoinFromPreTryState) {
  const auto x = cfg_of("cfg/try_catch.cpp");
  const int pre = block_of(x.cfg, code_index(x.f, "fallback", 1));  // value = fallback
  const int tryb = block_of(x.cfg, code_index(x.f, "42"));
  const int catch1 = block_of(x.cfg, code_index(x.f, "code", 1));  // value = code
  const int catch2 = block_of(x.cfg, code_index(x.f, "value", 3));  // value = -1
  const int after = block_of(x.cfg, code_index(x.f, "value", 4));   // return value
  ASSERT_NE(pre, -1);
  ASSERT_NE(tryb, -1);
  ASSERT_NE(catch1, -1);
  ASSERT_NE(catch2, -1);
  ASSERT_NE(after, -1);
  // The exception can fire before any try statement ran.
  EXPECT_TRUE(has_edge(x.cfg, pre, catch1));
  EXPECT_TRUE(has_edge(x.cfg, pre, catch2));
  EXPECT_TRUE(has_edge(x.cfg, tryb, after));
  EXPECT_TRUE(has_edge(x.cfg, catch1, after));
  EXPECT_TRUE(has_edge(x.cfg, catch2, after));
}

TEST(LintCfg, LambdaInLoopStaysOpaqueAndLoopGetsBackEdge) {
  const auto x = cfg_of("cfg/lambda_in_loop.cpp");
  const int header = block_of(x.cfg, code_index(x.f, "for"));
  const int body = block_of(x.cfg, code_index(x.f, "total", 1));  // total += scale(i)
  ASSERT_NE(header, -1);
  ASSERT_NE(body, -1);
  EXPECT_TRUE(has_edge(x.cfg, body, header)) << "loop back edge missing";
  // The lambda's interior belongs to the statement that declares it —
  // same block, no blocks of its own in the enclosing CFG.
  const int lam_decl = block_of(x.cfg, code_index(x.f, "scale", 0));
  const int lam_inner = block_of(x.cfg, code_index(x.f, "v", 0));
  EXPECT_EQ(lam_decl, lam_inner);
  EXPECT_EQ(lam_decl, body);
}

TEST(LintCfg, DeadCodeAfterReturnIsUnreachedByDataflow) {
  const SourceFile f =
      analyze("mem/dead.cpp", "int g() { return 1; int x = 0; return x; }");
  const Sema s = build_sema(f);
  ASSERT_EQ(s.functions.size(), 1u);
  const Cfg cfg = build_cfg(f, s.functions[0].body_begin, s.functions[0].body_end);
  const int dead = block_of(cfg, code_index(f, "x", 0));
  ASSERT_NE(dead, -1);
  const auto in = mosaiq::lint::solve_forward(
      cfg, 0, [](int, const int& v) { return v; },
      [](const int& a, const int&) { return a; });
  EXPECT_TRUE(in[static_cast<std::size_t>(cfg.entry)].has_value());
  EXPECT_FALSE(in[static_cast<std::size_t>(dead)].has_value())
      << "statements after a return must stay unreached";
}

TEST(LintDataflow, LocksetJoinIsIntersectionWithNearerScope) {
  using mosaiq::lint::LockState;
  const LockState a{{"mu_", 50}, {"io_mu_", 90}};
  const LockState b{{"mu_", 70}};
  const LockState j = mosaiq::lint::lockset_join(a, b);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.at("mu_"), 50u);
}

// ---------------------------------------------------------------------------
// rule families

TEST(LintLockset, FlagsEarlyUnlockConditionalAcquireAndUnlockedArm) {
  const auto fs = drive({"sema/lockset_violation.cpp"}, {"lockset"});
  const auto lines = lines_of(fs, "lockset");
  ASSERT_EQ(lines.size(), 3u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 18u);  // access after the fast path unlocked
  EXPECT_EQ(lines[1], 26u);  // guard scope closed + never-locked path
  EXPECT_EQ(lines[2], 35u);  // defer_lock arm that never acquired
  EXPECT_NE(fs[0].message.find("not on every path"), std::string::npos) << fs[0].message;
}

TEST(LintLockset, HeldOnEveryPathPasses) {
  EXPECT_TRUE(drive({"sema/lockset_clean.cpp"}, {"lockset"}).empty());
}

TEST(LintLockset, EarlyReturnInsideLockScopePasses) {
  EXPECT_TRUE(drive({"cfg/early_return_lock.cpp"}, {"lockset"}).empty());
}

TEST(LintRngBalance, FlagsOneSidedDraws) {
  const auto fs = drive({"net/rng_balance_violation.cpp"}, {"rng-stream-balance"});
  const auto lines = lines_of(fs, "rng-stream-balance");
  ASSERT_EQ(lines.size(), 2u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 12u);  // if (up) draws, implicit else silent
  EXPECT_EQ(lines[1], 20u);  // early-out returns past the draw
  EXPECT_NE(fs[0].message.find("align_rng"), std::string::npos) << fs[0].message;
}

TEST(LintRngBalance, BalancedAlignedAndHoistedPass) {
  EXPECT_TRUE(drive({"net/rng_balance_clean.cpp"}, {"rng-stream-balance"}).empty());
}

TEST(LintEnergyLedger, FlagsSpendPathsThatEscapeUnrecorded) {
  const auto fs = drive({"core/energy_ledger_violation.cpp"}, {"energy-ledger"});
  const auto lines = lines_of(fs, "energy-ledger");
  ASSERT_EQ(lines.size(), 2u) << mosaiq::lint::format_human(fs);
  EXPECT_EQ(lines[0], 15u);  // spend; only the account arm records
  EXPECT_EQ(lines[1], 24u);  // wait; the skip arm returns unrecorded
  EXPECT_NE(fs[0].message.find("spend-without-record"), std::string::npos) << fs[0].message;
}

TEST(LintEnergyLedger, RecordedOnEveryPathPasses) {
  EXPECT_TRUE(drive({"core/energy_ledger_clean.cpp"}, {"energy-ledger"}).empty());
}

TEST(LintCfgRules, CfgFixturesAreCleanUnderAllThreeFamilies) {
  EXPECT_TRUE(drive({"cfg/switch_fallthrough.cpp", "cfg/do_while.cpp",
                     "cfg/early_return_lock.cpp", "cfg/try_catch.cpp",
                     "cfg/lambda_in_loop.cpp"},
                    {"lockset", "rng-stream-balance", "energy-ledger"})
                  .empty());
}

// ---------------------------------------------------------------------------
// --fix engine

TEST(LintFix, AppliesReplacementsAndInsertions) {
  std::size_t applied = 0;
  EXPECT_EQ(mosaiq::lint::apply_edits("hello world", {{0, 5, "goodbye"}}, &applied),
            "goodbye world");
  EXPECT_EQ(applied, 1u);
  // Two insertions at one offset land in ascending text order.
  EXPECT_EQ(mosaiq::lint::apply_edits("ac", {{1, 1, "b2"}, {1, 1, "b1"}}, &applied),
            "ab1b2c");
  EXPECT_EQ(applied, 2u);
}

TEST(LintFix, DedupesAndDropsOverlapsAndOutOfRange) {
  std::size_t applied = 0;
  // Exact duplicates collapse to one application.
  EXPECT_EQ(mosaiq::lint::apply_edits("xyz", {{0, 1, "A"}, {0, 1, "A"}}, &applied), "Ayz");
  EXPECT_EQ(applied, 1u);
  // Overlapping edits: first (by offset) wins, the rest drop.
  EXPECT_EQ(mosaiq::lint::apply_edits("hello world", {{0, 5, "X"}, {3, 7, "Y"}}, &applied),
            "X world");
  EXPECT_EQ(applied, 1u);
  // Out-of-range edits never corrupt the text.
  EXPECT_EQ(mosaiq::lint::apply_edits("ab", {{5, 9, "Z"}}, &applied), "ab");
  EXPECT_EQ(applied, 0u);
}

/// Runs rules on (path, text), applies every fix, and returns the
/// rewritten text; asserts all findings carried fixes.
std::string fix_in_memory(const std::string& path, const std::string& text) {
  const SourceFile f = analyze(path, text);
  std::vector<Finding> fs;
  run_rules(f, {}, fs);
  EXPECT_FALSE(fs.empty()) << path << " seeded no findings";
  std::vector<TextEdit> edits;
  for (const Finding& fd : fs) {
    EXPECT_FALSE(fd.fixes.empty()) << "unfixable: " << fd.message;
    edits.insert(edits.end(), fd.fixes.begin(), fd.fixes.end());
  }
  return mosaiq::lint::apply_edits(text, std::move(edits));
}

void expect_fix_converges(const std::string& rel) {
  const std::string disk = std::string(LINT_FIXTURES_DIR "/fixable/") + rel;
  const std::string rel_path = std::string("fixable/") + rel;  // keeps dir scoping
  const std::string fixed = fix_in_memory(rel_path, slurp(disk));
  const SourceFile f2 = analyze(rel_path, fixed);
  std::vector<Finding> again;
  run_rules(f2, {}, again);
  EXPECT_TRUE(again.empty()) << rel << " after fix:\n"
                             << mosaiq::lint::format_human(again) << fixed;
}

TEST(LintFix, IncludeHygieneFixConverges) { expect_fix_converges("include_fix.hpp"); }
TEST(LintFix, UnitSuffixRenameConverges) { expect_fix_converges("sim/unit_fix.cpp"); }
TEST(LintFix, GuardedByRequiresInsertionConverges) {
  expect_fix_converges("guarded_requires_fix.cpp");
}

}  // namespace
