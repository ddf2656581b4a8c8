// The five flow-aware mosaiq-lint rule families (analyzer v2), built on
// the symbol model (sema.hpp) and cross-file index (index.hpp):
//
//   guarded-by        MOSAIQ_GUARDED_BY fields only touched with their
//                     mutex held; MOSAIQ_THREAD_SAFE classes must guard
//                     every mutable member
//   parallel-capture  mutable statics / globals / members mutated from
//                     stats::parallel_map lambdas without a guard
//   nested-parallel   parallel lambdas that submit (or transitively
//                     reach) further parallel work
//   determinism-flow  wall-clock-seeded engines, pointer-ordered sort
//                     comparators, unordered members iterated or
//                     copied out in nondeterministic order
//   unit-flow         unit suffixes as a dimension system: assignments
//                     and +/- must be dimensionally consistent unless a
//                     named conversion helper intervenes
//
// Like the token rules, everything here is heuristic: when a construct
// is too exotic to classify, the rule under-reports rather than floods.
#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/lint.hpp"
#include "lint/sema.hpp"

namespace mosaiq::lint {

namespace {

const Token& tok(const SourceFile& f, std::size_t k) { return f.tokens[f.code[k]]; }
bool is_punct(const SourceFile& f, std::size_t k, std::string_view p) {
  return k < f.code.size() && tok(f, k).kind == TokKind::Punct && tok(f, k).text == p;
}
bool is_ident(const SourceFile& f, std::size_t k) {
  return k < f.code.size() && tok(f, k).kind == TokKind::Identifier;
}
bool is_ident(const SourceFile& f, std::size_t k, std::string_view name) {
  return is_ident(f, k) && tok(f, k).text == name;
}

// ---------------------------------------------------------------------------
// shared: parallel-submission regions and lock scans

/// Argument-list code ranges of parallel submissions: parallel_map(...)
/// calls and .run(...) calls on a pool-ish receiver.
std::vector<std::pair<std::size_t, std::size_t>> parallel_arg_ranges(const SourceFile& f) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t npos = static_cast<std::size_t>(-1);
  for (std::size_t k = 0; k + 1 < f.code.size(); ++k) {
    if (!is_ident(f, k)) continue;
    const std::string& t = tok(f, k).text;
    std::size_t open = npos;
    if (t == "parallel_map") {
      // Optional explicit template argument list: parallel_map<T>(...).
      std::size_t j = k + 1;
      if (is_punct(f, j, "<")) {
        int depth = 0;
        const std::size_t limit = std::min(f.code.size(), j + 64);
        for (; j < limit; ++j) {
          if (is_punct(f, j, "<")) ++depth;
          else if (is_punct(f, j, ">") && --depth == 0) break;
          else if (is_punct(f, j, ">>") && (depth -= 2) <= 0) break;
        }
        ++j;
      }
      if (is_punct(f, j, "(")) open = j;
    } else if (t == "run" && is_punct(f, k + 1, "(") && k >= 1 &&
               (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->"))) {
      const std::size_t back = k > 8 ? k - 8 : 0;
      for (std::size_t j = back; j < k; ++j) {
        if (!is_ident(f, j)) continue;
        std::string low = tok(f, j).text;
        std::transform(low.begin(), low.end(), low.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
        if (low.find("pool") != std::string::npos) {
          open = k + 1;
          break;
        }
      }
    }
    if (open == npos) continue;
    const std::size_t close = match_forward(f, open);
    if (close < f.code.size()) out.emplace_back(open, close);
  }
  return out;
}

/// Lambdas whose capture intro sits inside a parallel submission's
/// argument list: their bodies run concurrently on pool workers.
std::set<int> parallel_lambdas(const Sema& s) {
  std::set<int> out;
  const auto ranges = parallel_arg_ranges(*s.file);
  for (std::size_t i = 0; i < s.lambdas.size(); ++i) {
    for (const auto& [b, e] : ranges) {
      if (s.lambdas[i].intro > b && s.lambdas[i].intro < e) {
        out.insert(static_cast<int>(i));
        break;
      }
    }
  }
  return out;
}

/// Terminal names of mutexes locked inside [begin, end): the same
/// detection Sema runs per function, scoped to a lambda body.
std::set<std::string> locks_in_range(const SourceFile& f, std::size_t begin, std::size_t end) {
  static const std::set<std::string> lockers = {"lock_guard", "scoped_lock", "unique_lock",
                                                "shared_lock"};
  std::set<std::string> out;
  for (std::size_t k = begin; k < end && k < f.code.size(); ++k) {
    if (!is_ident(f, k)) continue;
    const std::string& name = tok(f, k).text;
    if (lockers.count(name)) {
      std::size_t j = k + 1;
      if (is_punct(f, j, "<")) {
        int depth = 0;
        const std::size_t limit = std::min(end, j + 64);
        for (; j < limit; ++j) {
          if (is_punct(f, j, "<")) ++depth;
          else if (is_punct(f, j, ">") && --depth == 0) break;
          else if (is_punct(f, j, ">>") && (depth -= 2) <= 0) break;
        }
        ++j;
      }
      if (!is_ident(f, j)) continue;  // needs a guard variable name
      ++j;
      if (!is_punct(f, j, "(")) continue;
      const std::size_t c = match_forward(f, j);
      if (c >= end) continue;
      int depth = 0;
      std::string last;
      for (std::size_t g = j + 1; g <= c; ++g) {
        if (g < c && is_punct(f, g, "(")) ++depth;
        else if (g < c && is_punct(f, g, ")")) --depth;
        if (is_ident(f, g)) last = tok(f, g).text;
        if (g == c || (depth == 0 && is_punct(f, g, ","))) {
          if (!last.empty()) out.insert(last);
          last.clear();
        }
      }
    } else if (name == "lock" && k >= 2 &&
               (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->")) &&
               is_punct(f, k + 1, "(") && is_ident(f, k - 2)) {
      out.insert(tok(f, k - 2).text);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// guarded-by

void check_guarded_by(const Sema& s, const CrossIndex& ix, std::vector<Finding>& out) {
  const SourceFile& f = *s.file;

  // (a) MOSAIQ_THREAD_SAFE completeness: every mutable member of a
  // thread-safe class must name its lock.
  for (const SemaClass& c : s.classes) {
    if (!c.thread_safe) continue;
    for (const SemaField& fd : s.fields) {
      if (fd.cls != c.name) continue;
      if (fd.is_const || fd.is_atomic || fd.is_mutex) continue;
      if (!fd.guarded_by.empty()) continue;
      out.push_back({"guarded-by", f.path, fd.line,
                     "class " + c.name + " is MOSAIQ_THREAD_SAFE but member '" + fd.name +
                         "' is neither const, atomic, a mutex, nor MOSAIQ_GUARDED_BY: "
                         "new state must name its lock"});
    }
  }

  // (b) guarded fields must be touched with their mutex held (locked in
  // the enclosing function or promised via MOSAIQ_REQUIRES).  Ctors and
  // dtors are exempt; accesses inside parallel lambdas are judged by
  // the parallel-capture rule instead, because the enclosing function's
  // locks do not extend onto pool workers.
  const std::set<int> plambdas = parallel_lambdas(s);
  for (std::size_t k = 0; k < f.code.size(); ++k) {
    if (!is_ident(f, k)) continue;
    const std::string& name = tok(f, k).text;
    const auto fc = ix.field_classes.find(name);
    if (fc == ix.field_classes.end()) continue;
    const int fi = s.function_containing(k);
    if (fi < 0) continue;
    const SemaFunction& fn = s.functions[fi];
    if (fn.is_ctor_dtor) continue;
    if (is_punct(f, k + 1, "(")) continue;        // a call: method, not field
    if (k >= 1 && is_punct(f, k - 1, "::")) continue;  // qualified non-member use
    const int li = s.lambda_containing(k);
    if (li >= 0 && plambdas.count(li)) continue;

    const bool member_access =
        k >= 1 && (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->"));
    std::string cls;
    if (member_access) {
      if (k >= 2 && is_ident(f, k - 2, "this")) cls = fn.cls;
      else if (fc->second.size() == 1) cls = *fc->second.begin();
      else continue;  // ambiguous receiver: under-report
    } else {
      cls = fn.cls;
    }
    if (cls.empty()) continue;
    const IndexedField* fld = ix.field(cls, name);
    if (!fld || fld->guarded_by.empty()) continue;
    const std::string& mu = fld->guarded_by;
    if (std::find(fn.locks_held.begin(), fn.locks_held.end(), mu) != fn.locks_held.end())
      continue;
    Finding fd{"guarded-by", f.path, tok(f, k).line,
               "'" + cls + "::" + name + "' is MOSAIQ_GUARDED_BY(" + mu + ") but '" +
                   fn.name + "' neither locks " + mu + " nor declares MOSAIQ_REQUIRES(" +
                   mu + ")"};
    // Fix: declare the caller-must-hold contract on the definition —
    // insert MOSAIQ_REQUIRES(mu) just before the body's '{'.  (Taking
    // the lock instead could self-deadlock a caller that already holds
    // it, so the annotation is the safe machine-applicable repair.)
    if (fn.body_begin > 0 && fn.body_begin <= f.code.size()) {
      const Token& brace = f.tokens[f.code[fn.body_begin - 1]];
      if (brace.kind == TokKind::Punct && brace.text == "{") {
        fd.fixes.push_back({brace.offset, brace.offset, "MOSAIQ_REQUIRES(" + mu + ") "});
      }
    }
    out.push_back(std::move(fd));
  }
}

// ---------------------------------------------------------------------------
// parallel-capture

/// True when the identifier at code index k is mutated: assigned
/// (directly or through a subscript), incremented/decremented, or used
/// as the receiver of a mutating container method.
bool mutating_use(const SourceFile& f, std::size_t k) {
  static const std::set<std::string> kAssign = {"=",  "+=", "-=",  "*=",  "/=", "%=",
                                                "&=", "|=", "^=", "<<=", ">>=", "++", "--"};
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "insert", "emplace", "erase", "clear",
      "resize",    "reserve",      "assign",   "push",   "pop",     "merge"};
  if (k >= 1 && (is_punct(f, k - 1, "++") || is_punct(f, k - 1, "--"))) return true;
  std::size_t j = k + 1;
  if (is_punct(f, j, "[")) {
    const std::size_t c = match_forward(f, j);
    if (c >= f.code.size()) return false;
    j = c + 1;
  }
  if (j < f.code.size() && tok(f, j).kind == TokKind::Punct && kAssign.count(tok(f, j).text))
    return true;
  if ((is_punct(f, j, ".") || is_punct(f, j, "->")) && is_ident(f, j + 1) &&
      kMutators.count(tok(f, j + 1).text) && is_punct(f, j + 2, "("))
    return true;
  return false;
}

void check_parallel_capture(const Sema& s, const CrossIndex& ix, std::vector<Finding>& out) {
  const SourceFile& f = *s.file;
  const std::set<int> pl = parallel_lambdas(s);
  for (const int li : pl) {
    const SemaLambda& l = s.lambdas[li];
    std::set<std::string> lambda_params;
    for (const SemaParam& p : l.params)
      if (!p.name.empty()) lambda_params.insert(p.name);
    const std::vector<SemaLocal> ldecls = s.locals_in(l.body_begin, l.body_end);
    std::vector<SemaLocal> fdecls;
    std::set<std::string> fn_params;
    std::string cls;
    if (l.enclosing_function >= 0) {
      const SemaFunction& encl = s.functions[l.enclosing_function];
      fdecls = s.locals_in(encl.body_begin, encl.body_end);
      for (const SemaParam& p : encl.params)
        if (!p.name.empty()) fn_params.insert(p.name);
      cls = encl.cls;
    }
    const std::set<std::string> body_locks = locks_in_range(f, l.body_begin, l.body_end);
    std::set<std::string> reported;

    auto report_member = [&](const std::string& mcls, const std::string& name,
                             std::size_t line) {
      const IndexedField* fld = ix.field(mcls, name);
      if (!fld || fld->is_const || fld->is_atomic || fld->is_mutex) return;
      if (fld->guarded_by.empty()) {
        out.push_back({"parallel-capture", f.path, line,
                       "member '" + mcls + "::" + name +
                           "' is mutated from a parallel_map lambda but carries no "
                           "MOSAIQ_GUARDED_BY and is not atomic: concurrent workers race"});
      } else if (!body_locks.count(fld->guarded_by)) {
        out.push_back({"parallel-capture", f.path, line,
                       "member '" + mcls + "::" + name + "' is MOSAIQ_GUARDED_BY(" +
                           fld->guarded_by + ") but the parallel lambda mutates it without "
                           "locking " + fld->guarded_by + " in its own body"});
      }
      reported.insert(name);
    };

    for (std::size_t k = l.body_begin; k < l.body_end && k < f.code.size(); ++k) {
      if (!is_ident(f, k) || !mutating_use(f, k)) continue;
      const std::string& name = tok(f, k).text;
      if (reported.count(name)) continue;
      const std::size_t line = tok(f, k).line;
      const bool member_access =
          k >= 1 && (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->"));
      const bool via_this = member_access && k >= 2 && is_ident(f, k - 2, "this");
      if (member_access && !via_this) {
        const auto it = ix.field_classes.find(name);
        if (it != ix.field_classes.end() && it->second.size() == 1)
          report_member(*it->second.begin(), name, line);
        continue;
      }
      auto find_decl = [&](const std::vector<SemaLocal>& v) -> const SemaLocal* {
        const SemaLocal* best = nullptr;
        for (const SemaLocal& d : v)
          if (d.name == name) best = &d;
        return best;
      };
      auto shared_static = [](const SemaLocal& d) {
        return d.is_static && !d.is_const && !d.is_atomic && !d.is_thread_local &&
               !d.is_mutex;
      };
      if (const SemaLocal* d = find_decl(ldecls)) {
        if (shared_static(*d)) {
          out.push_back({"parallel-capture", f.path, line,
                         "static local '" + name +
                             "' is mutated from a parallel_map lambda: function-statics "
                             "are shared across workers; make it atomic or guard it"});
          reported.insert(name);
        }
        continue;  // ordinary lambda-local: private to each invocation
      }
      if (lambda_params.count(name)) continue;
      if (const SemaLocal* d = find_decl(fdecls)) {
        if (shared_static(*d)) {
          out.push_back({"parallel-capture", f.path, line,
                         "static local '" + name +
                             "' is mutated from a parallel_map lambda: function-statics "
                             "are shared across workers; make it atomic or guard it"});
          reported.insert(name);
        }
        // A ref-captured plain local is the sanctioned per-index output
        // pattern (results[i] = ...), so it is not flagged here.
        continue;
      }
      if (fn_params.count(name)) continue;
      const SemaLocal* g = nullptr;
      for (const SemaLocal& gg : s.globals)
        if (gg.name == name) g = &gg;
      if (g) {
        if (!g->is_const && !g->is_atomic && !g->is_thread_local && !g->is_mutex) {
          out.push_back({"parallel-capture", f.path, line,
                         "global '" + name +
                             "' is mutated from a parallel_map lambda without a guard: "
                             "concurrent workers race"});
          reported.insert(name);
        }
        continue;
      }
      if (!cls.empty()) report_member(cls, name, line);
    }
  }
}

// ---------------------------------------------------------------------------
// nested-parallel

void check_nested_parallel(const Sema& s, const CrossIndex& ix, std::vector<Finding>& out) {
  const SourceFile& f = *s.file;
  // The pool's own inline re-entry machinery is the sanctioned path.
  if (f.path.find("perf/thread_pool") != std::string::npos ||
      f.path.find("stats/parallel") != std::string::npos)
    return;
  for (const int li : parallel_lambdas(s)) {
    const SemaLambda& l = s.lambdas[li];
    if (submits_parallel(f, l.body_begin, l.body_end)) {
      out.push_back({"nested-parallel", f.path, l.line,
                     "parallel_map lambda submits nested parallel work: nesting relies on "
                     "the pool's inline fallback; restructure to a single level or "
                     "suppress with a reason"});
      continue;
    }
    for (const std::string& c : callees_in(f, l.body_begin, l.body_end)) {
      if (ix.reaches_submit.count(c)) {
        out.push_back({"nested-parallel", f.path, l.line,
                       "parallel_map lambda calls '" + c +
                           "' which (transitively) submits parallel work: nesting relies "
                           "on the pool's inline fallback; restructure to a single level "
                           "or suppress with a reason"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-flow

/// Names declared with an unordered container type anywhere in this
/// file (the same scan the token-level determinism rule runs); used to
/// avoid double-reporting range-fors that rule already flags.
std::set<std::string> local_unordered_names(const SourceFile& f) {
  static const std::set<std::string> kUnordered = {"unordered_set", "unordered_map",
                                                   "unordered_multiset",
                                                   "unordered_multimap"};
  std::set<std::string> names;
  for (std::size_t k = 0; k + 1 < f.code.size(); ++k) {
    if (!is_ident(f, k) || !kUnordered.count(tok(f, k).text)) continue;
    if (!is_punct(f, k + 1, "<")) continue;
    int depth = 0;
    std::size_t j = k + 1;
    const std::size_t limit = std::min(f.code.size(), k + 64);
    for (; j < limit; ++j) {
      if (is_punct(f, j, "<")) ++depth;
      else if (is_punct(f, j, ">") && --depth == 0) break;
      else if (is_punct(f, j, ">>") && (depth -= 2) == 0) break;
    }
    std::size_t n = j + 1;
    while (n < f.code.size() &&
           (is_punct(f, n, "&") || is_punct(f, n, "*") || is_ident(f, n, "const")))
      ++n;
    if (n < f.code.size() && is_ident(f, n)) names.insert(tok(f, n).text);
  }
  return names;
}

/// Resolves the class of an identifier access at code index k (bare
/// identifiers bind to the enclosing method's class; member accesses to
/// the unique declaring class).  Empty when unresolvable.
std::string access_class(const Sema& s, const CrossIndex& ix, std::size_t k,
                         const std::string& name) {
  const SourceFile& f = *s.file;
  const bool member_access = k >= 1 && (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->"));
  if (member_access) {
    if (k >= 2 && is_ident(f, k - 2, "this")) {
      const int fi = s.function_containing(k);
      return fi >= 0 ? s.functions[fi].cls : std::string();
    }
    const auto it = ix.field_classes.find(name);
    if (it != ix.field_classes.end() && it->second.size() == 1) return *it->second.begin();
    return std::string();
  }
  const int fi = s.function_containing(k);
  return fi >= 0 ? s.functions[fi].cls : std::string();
}

void check_determinism_flow(const Sema& s, const CrossIndex& ix, std::vector<Finding>& out) {
  const SourceFile& f = *s.file;
  const bool workload = f.path.find("workload/") != std::string::npos;

  // (a) engines seeded from the wall clock.  The token rule catches C
  // time()/clock(); this catches the chrono forms flowing into a seed.
  static const std::set<std::string> kEngines = {
      "mt19937",        "mt19937_64", "minstd_rand",           "minstd_rand0",
      "default_random_engine", "knuth_b", "ranlux24_base",     "ranlux48_base",
      "LazyMt19937_64"};
  static const std::set<std::string> kClocky = {"now", "system_clock", "steady_clock",
                                                "high_resolution_clock"};
  auto clocky_in = [&](std::size_t b, std::size_t e) -> bool {
    for (std::size_t j = b; j < e && j < f.code.size(); ++j) {
      if (is_ident(f, j) && kClocky.count(tok(f, j).text)) return true;
    }
    return false;
  };
  if (!workload) {
    for (std::size_t k = 0; k + 2 < f.code.size(); ++k) {
      if (is_ident(f, k) && kEngines.count(tok(f, k).text) && is_ident(f, k + 1) &&
          (is_punct(f, k + 2, "(") || is_punct(f, k + 2, "{"))) {
        const std::size_t close = match_forward(f, k + 2);
        if (close < f.code.size() && clocky_in(k + 3, close)) {
          out.push_back({"determinism-flow", f.path, tok(f, k).line,
                         "engine '" + tok(f, k + 1).text +
                             "' is seeded from the wall clock: every run replays "
                             "differently; seed from the experiment config instead"});
        }
      }
      if (is_ident(f, k, "seed") && k >= 1 &&
          (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->")) && is_punct(f, k + 1, "(")) {
        const std::size_t close = match_forward(f, k + 1);
        if (close < f.code.size() && clocky_in(k + 2, close)) {
          out.push_back({"determinism-flow", f.path, tok(f, k).line,
                         "seed() argument reads the wall clock: every run replays "
                         "differently; seed from the experiment config instead"});
        }
      }
    }
  }

  // (b) sort comparators ordering by raw pointer value: address layout
  // varies run to run (and under ASLR), so the sort is not a fix point.
  static const std::set<std::string> kSorts = {"sort", "stable_sort", "partial_sort",
                                               "nth_element"};
  for (std::size_t k = 0; k + 1 < f.code.size(); ++k) {
    if (!is_ident(f, k) || !kSorts.count(tok(f, k).text) || !is_punct(f, k + 1, "("))
      continue;
    const std::size_t close = match_forward(f, k + 1);
    if (close >= f.code.size()) continue;
    for (const SemaLambda& l : s.lambdas) {
      if (l.intro <= k + 1 || l.intro >= close) continue;
      if (l.params.size() != 2 || !l.params[0].is_pointer || !l.params[1].is_pointer)
        continue;
      const std::string& a = l.params[0].name;
      const std::string& b = l.params[1].name;
      if (a.empty() || b.empty()) continue;
      for (std::size_t j = l.body_begin; j + 2 < l.body_end; ++j) {
        if (!is_ident(f, j) || !(is_punct(f, j + 1, "<") || is_punct(f, j + 1, ">")))
          continue;
        if (!is_ident(f, j + 2)) continue;
        const std::string& x = tok(f, j).text;
        const std::string& y = tok(f, j + 2).text;
        if ((x == a && y == b) || (x == b && y == a)) {
          out.push_back({"determinism-flow", f.path, tok(f, j).line,
                         "comparator orders '" + a + "' and '" + b +
                             "' by raw pointer value: allocation addresses differ run to "
                             "run; compare a stable key instead"});
          break;
        }
      }
    }
  }

  // (c) range-for over an unordered *member* declared in another file:
  // the token rule only sees declarations in the current TU.
  const std::set<std::string> local_unordered = local_unordered_names(f);
  for (std::size_t k = 0; k + 1 < f.code.size(); ++k) {
    if (!is_ident(f, k, "for") || !is_punct(f, k + 1, "(")) continue;
    std::size_t depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = k + 1; j < f.code.size(); ++j) {
      if (is_punct(f, j, "(")) ++depth;
      else if (is_punct(f, j, ")") && --depth == 0) {
        close = j;
        break;
      } else if (depth == 1 && is_punct(f, j, ":"))
        colon = j;
    }
    if (!colon || !close) continue;
    std::size_t last = 0;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_ident(f, j)) last = j;
    }
    if (!last) continue;
    const std::string& name = tok(f, last).text;
    if (local_unordered.count(name)) continue;  // token rule's territory
    const std::string cls = access_class(s, ix, last, name);
    if (cls.empty()) continue;
    const IndexedField* fld = ix.field(cls, name);
    if (!fld || !fld->is_unordered) continue;
    out.push_back({"determinism-flow", f.path, tok(f, k).line,
                   "iterating unordered member '" + cls + "::" + name + "' (declared in " +
                       fld->file + "): order is nondeterministic; sort into a vector "
                       "first when the result feeds accounting or traces"});
  }

  // (d) copying an unordered container out through begin()/end() with
  // no adjacent sort: the copy inherits the nondeterministic order.
  for (std::size_t k = 0; k + 10 < f.code.size(); ++k) {
    if (!is_ident(f, k)) continue;
    const std::string& name = tok(f, k).text;
    if (!is_punct(f, k + 1, ".") || !is_ident(f, k + 2, "begin") ||
        !is_punct(f, k + 3, "(") || !is_punct(f, k + 4, ")") || !is_punct(f, k + 5, ","))
      continue;
    if (!is_ident(f, k + 6) || tok(f, k + 6).text != name || !is_punct(f, k + 7, ".") ||
        !is_ident(f, k + 8, "end"))
      continue;
    bool unordered = local_unordered.count(name) != 0;
    if (!unordered) {
      const std::string cls = access_class(s, ix, k, name);
      const IndexedField* fld = cls.empty() ? nullptr : ix.field(cls, name);
      unordered = fld && fld->is_unordered;
    }
    if (!unordered) continue;
    const std::size_t line = tok(f, k).line;
    bool sorted_nearby = false;
    for (std::size_t j = 0; j < f.code.size() && tok(f, j).line <= line + 3; ++j) {
      if (tok(f, j).line >= line && is_ident(f, j) &&
          (tok(f, j).text == "sort" || tok(f, j).text == "stable_sort")) {
        sorted_nearby = true;
        break;
      }
    }
    if (sorted_nearby) continue;
    out.push_back({"determinism-flow", f.path, line,
                   "copying unordered container '" + name +
                       "' out through begin()/end(): the copy inherits a "
                       "nondeterministic order; sort it before it feeds accounting, "
                       "traces, or output"});
  }
}

// ---------------------------------------------------------------------------
// unit-flow

bool in_quantity_dir(const std::string& path) {
  for (const char* d : {"sim/", "net/", "stats/", "obs/"}) {
    const std::size_t at = path.find(d);
    if (at != std::string::npos && (at == 0 || path[at - 1] == '/')) return true;
  }
  return false;
}

std::vector<std::string> name_parts(const std::string& name) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : name) {
    if (c == '_') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

/// Dimension-exponent axes: time, energy, info, length, volts, charge,
/// cycles.  Scale prefixes share an axis (ms and s are both time); the
/// +/- check separately requires the exact suffix to match.
constexpr std::size_t kAxes = 7;
using DimVec = std::array<int, kAxes>;

const char* axis_symbol(std::size_t a) {
  static const char* sym[kAxes] = {"s", "J", "b", "m", "V", "Ah", "cyc"};
  return sym[a];
}

struct UnitInfo {
  bool unit = false;    ///< carries a recognized dimensioned suffix
  bool opaque = false;  ///< compound (`_per_`) name: do not reason
  DimVec dim{};
  std::string norm;  ///< scale-specific normalized suffix ("ms" != "s")
};

const std::map<std::string, UnitInfo>& unit_table() {
  static const std::map<std::string, UnitInfo> m = [] {
    std::map<std::string, UnitInfo> t;
    auto add = [&](std::initializer_list<const char*> names, DimVec d, const char* norm) {
      bool first = true;
      for (const char* n : names) {
        UnitInfo u;
        u.unit = true;
        u.dim = d;
        u.norm = (norm != nullptr) ? norm : n;
        if (norm == nullptr && !first) u.norm = n;
        t[n] = u;
        first = false;
      }
    };
    const DimVec T{1, 0, 0, 0, 0, 0, 0}, E{0, 1, 0, 0, 0, 0, 0}, I{0, 0, 1, 0, 0, 0, 0},
        L{0, 0, 0, 1, 0, 0, 0}, V{0, 0, 0, 0, 1, 0, 0}, Q{0, 0, 0, 0, 0, 1, 0},
        C{0, 0, 0, 0, 0, 0, 1};
    auto minus = [](DimVec a, DimVec b) {
      DimVec r{};
      for (std::size_t i = 0; i < kAxes; ++i) r[i] = a[i] - b[i];
      return r;
    };
    add({"s"}, T, nullptr);
    add({"ms"}, T, nullptr);
    add({"us"}, T, nullptr);
    add({"ns"}, T, nullptr);
    add({"seconds"}, T, "s");
    add({"j"}, E, nullptr);
    add({"joules"}, E, "j");
    add({"nj"}, E, nullptr);
    add({"uj"}, E, nullptr);
    add({"mj"}, E, nullptr);
    add({"kj"}, E, nullptr);
    add({"bytes", "byte"}, I, "bytes");
    add({"bits", "bit"}, I, "bits");
    add({"kb"}, I, nullptr);
    add({"mb"}, I, nullptr);
    add({"gb"}, I, nullptr);
    add({"bps"}, minus(I, T), nullptr);
    add({"kbps"}, minus(I, T), nullptr);
    add({"mbps"}, minus(I, T), nullptr);
    add({"gbps"}, minus(I, T), nullptr);
    add({"hz"}, minus(C, T), nullptr);
    add({"khz"}, minus(C, T), nullptr);
    add({"mhz"}, minus(C, T), nullptr);
    add({"ghz"}, minus(C, T), nullptr);
    add({"w"}, minus(E, T), nullptr);
    add({"watts"}, minus(E, T), "w");
    add({"mw"}, minus(E, T), nullptr);
    add({"uw"}, minus(E, T), nullptr);
    add({"nw"}, minus(E, T), nullptr);
    add({"kw"}, minus(E, T), nullptr);
    add({"m"}, L, nullptr);
    add({"km"}, L, nullptr);
    add({"cm"}, L, nullptr);
    add({"mm"}, L, nullptr);
    add({"um"}, L, nullptr);
    add({"v"}, V, nullptr);
    add({"volts"}, V, "v");
    add({"mv"}, V, nullptr);
    add({"mah"}, Q, nullptr);
    add({"ah"}, Q, nullptr);
    add({"cycles", "cycle"}, C, "cycles");
    return t;
  }();
  return m;
}

/// Unit of an identifier, from the last recognized unit token in its
/// snake_case parts.  `_per_` names are opaque: their dimension is a
/// quotient the suffix grammar cannot express.
UnitInfo unit_of(const std::string& name) {
  UnitInfo none;
  const std::vector<std::string> parts = name_parts(name);
  for (const std::string& p : parts) {
    if (p == "per") {
      none.opaque = true;
      return none;
    }
  }
  const auto& table = unit_table();
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    const auto hit = table.find(*it);
    if (hit != table.end()) return hit->second;
  }
  return none;
}

std::string dim_string(const DimVec& d) {
  std::string num;
  std::string den;
  for (std::size_t a = 0; a < kAxes; ++a) {
    for (int i = 0; i < d[a]; ++i) {
      if (!num.empty()) num += "*";
      num += axis_symbol(a);
    }
    for (int i = 0; i < -d[a]; ++i) {
      if (!den.empty()) den += "*";
      den += axis_symbol(a);
    }
  }
  if (num.empty() && den.empty()) return "dimensionless";
  if (num.empty()) num = "1";
  return den.empty() ? num : num + "/" + den;
}

bool is_zero(const DimVec& d) {
  for (const int x : d)
    if (x != 0) return false;
  return true;
}

/// Dimension of an expression, or nullopt when it contains something
/// the suffix grammar cannot judge (a call — the named-conversion
/// escape hatch — an opaque name, or unsupported syntax).
struct ExprDim {
  DimVec dim{};
  bool has_unit_ident = false;  ///< at least one dimensioned leaf
};

class DimParser {
 public:
  DimParser(const SourceFile& f, std::size_t begin, std::size_t end)
      : f_(f), pos_(begin), end_(end) {}

  std::optional<ExprDim> parse() {
    auto r = parse_expr();
    if (!r) return std::nullopt;
    // The whole span must be consumed up to a statement/argument
    // boundary; anything else (?:, <<, comparisons) is unsupported.
    if (pos_ < end_ && !(is_punct(f_, pos_, ";") || is_punct(f_, pos_, ",") ||
                         is_punct(f_, pos_, ")") || is_punct(f_, pos_, "}") ||
                         is_punct(f_, pos_, "]")))
      return std::nullopt;
    return r;
  }

 private:
  std::optional<ExprDim> parse_expr() {
    auto lhs = parse_term();
    if (!lhs) return std::nullopt;
    while (pos_ < end_ && (is_punct(f_, pos_, "+") || is_punct(f_, pos_, "-"))) {
      ++pos_;
      auto rhs = parse_term();
      if (!rhs) return std::nullopt;
      if (lhs->dim == rhs->dim) {
        lhs->has_unit_ident |= rhs->has_unit_ident;
      } else if (!rhs->has_unit_ident && is_zero(rhs->dim)) {
        // dimensioned ± plain number: offsets keep the dimension
      } else if (!lhs->has_unit_ident && is_zero(lhs->dim)) {
        lhs = rhs;
      } else {
        return std::nullopt;  // mismatched add: the adjacency check reports
      }
    }
    return lhs;
  }

  std::optional<ExprDim> parse_term() {
    auto lhs = parse_factor();
    if (!lhs) return std::nullopt;
    while (pos_ < end_ && (is_punct(f_, pos_, "*") || is_punct(f_, pos_, "/") ||
                           is_punct(f_, pos_, "%"))) {
      const bool div = is_punct(f_, pos_, "/");
      const bool mod = is_punct(f_, pos_, "%");
      ++pos_;
      auto rhs = parse_factor();
      if (!rhs) return std::nullopt;
      if (!mod) {
        for (std::size_t a = 0; a < kAxes; ++a)
          lhs->dim[a] += div ? -rhs->dim[a] : rhs->dim[a];
      }
      lhs->has_unit_ident |= rhs->has_unit_ident;
    }
    return lhs;
  }

  std::optional<ExprDim> parse_factor() {
    if (pos_ >= end_) return std::nullopt;
    if (is_punct(f_, pos_, "+") || is_punct(f_, pos_, "-") || is_punct(f_, pos_, "!")) {
      ++pos_;
      return parse_factor();
    }
    if (is_punct(f_, pos_, "(")) {
      const std::size_t close = match_forward(f_, pos_);
      if (close >= end_) return std::nullopt;
      DimParser inner(f_, pos_ + 1, close);
      auto r = inner.parse();
      if (!r) return std::nullopt;
      pos_ = close + 1;
      return r;
    }
    const Token& t = tok(f_, pos_);
    if (t.kind == TokKind::Number) {
      ++pos_;
      return ExprDim{};
    }
    if (t.kind != TokKind::Identifier) return std::nullopt;
    // static_cast<T>(expr) and friends are transparent.
    static const std::set<std::string> kCasts = {"static_cast", "const_cast",
                                                 "reinterpret_cast"};
    if (kCasts.count(t.text) && is_punct(f_, pos_ + 1, "<")) {
      std::size_t j = pos_ + 1;
      int depth = 0;
      for (; j < end_; ++j) {
        if (is_punct(f_, j, "<")) ++depth;
        else if (is_punct(f_, j, ">") && --depth == 0) break;
        else if (is_punct(f_, j, ">>") && (depth -= 2) <= 0) break;
      }
      if (j >= end_ || !is_punct(f_, j + 1, "(")) return std::nullopt;
      const std::size_t close = match_forward(f_, j + 1);
      if (close >= end_) return std::nullopt;
      DimParser inner(f_, j + 2, close);
      auto r = inner.parse();
      if (!r) return std::nullopt;
      pos_ = close + 1;
      return r;
    }
    // Identifier chain a::b.c->d; a trailing call is opaque (the named
    // conversion-helper escape), a subscript keeps the array's suffix.
    std::size_t last = pos_;
    std::size_t j = pos_;
    while (j < end_ && is_ident(f_, j)) {
      last = j;
      ++j;
      if (j < end_ && (is_punct(f_, j, ".") || is_punct(f_, j, "->") ||
                       is_punct(f_, j, "::"))) {
        ++j;
        continue;
      }
      break;
    }
    if (j < end_ && is_punct(f_, j, "(")) return std::nullopt;  // call: opaque
    if (j < end_ && is_punct(f_, j, "[")) {
      const std::size_t close = match_forward(f_, j);
      if (close >= end_) return std::nullopt;
      j = close + 1;
    }
    pos_ = j;
    const UnitInfo u = unit_of(tok(f_, last).text);
    if (u.opaque) return std::nullopt;
    ExprDim r;
    if (u.unit) {
      r.dim = u.dim;
      r.has_unit_ident = true;
    }
    return r;
  }

  const SourceFile& f_;
  std::size_t pos_;
  std::size_t end_;
};

/// Walks an identifier chain ending at code index k backwards; returns
/// the terminal identifier's index, or npos when k is not an ident.
std::size_t chain_terminal_at(const SourceFile& f, std::size_t k) {
  return is_ident(f, k) ? k : static_cast<std::size_t>(-1);
}

void check_unit_flow(const SourceFile& f, std::vector<Finding>& out) {
  if (!in_quantity_dir(f.path)) return;

  // (1) cross-suffix add/subtract: both operands carry unit suffixes
  // and they disagree (ms + s is flagged even though both are time —
  // the scales differ and no conversion helper intervened).
  for (std::size_t k = 1; k + 1 < f.code.size(); ++k) {
    const bool plain = is_punct(f, k, "+") || is_punct(f, k, "-");
    const bool compound = is_punct(f, k, "+=") || is_punct(f, k, "-=");
    if (!plain && !compound) continue;
    const std::size_t l = chain_terminal_at(f, k - 1);
    const std::size_t r = chain_terminal_at(f, k + 1);
    if (l == static_cast<std::size_t>(-1) || r == static_cast<std::size_t>(-1)) continue;
    const UnitInfo lu = unit_of(tok(f, l).text);
    const UnitInfo ru = unit_of(tok(f, r).text);
    if (!lu.unit || !ru.unit) continue;
    if (lu.norm == ru.norm) continue;
    // The right operand must be the whole term: `a_s + b_ms * scale`
    // still mixes, but `a_bytes + b_bits / 8` may be a deliberate
    // conversion — stay conservative and only flag bare operands.
    if (is_punct(f, r + 1, "*") || is_punct(f, r + 1, "/") || is_punct(f, r + 1, ".") ||
        is_punct(f, r + 1, "->") || is_punct(f, r + 1, "::") || is_punct(f, r + 1, "("))
      continue;
    const char* op = plain ? (is_punct(f, k, "+") ? "+" : "-") : (is_punct(f, k, "+=") ? "+=" : "-=");
    out.push_back({"unit-flow", f.path, tok(f, k).line,
                   "'" + tok(f, l).text + " " + op + " " + tok(f, r).text +
                       "' mixes unit suffixes _" + lu.norm + " and _" + ru.norm +
                       ": convert through a named helper before combining"});
  }

  // (2) assignment dataflow: the right-hand side's dimension (units
  // multiply/divide through * and /) must match the suffix on the left.
  for (std::size_t k = 1; k + 1 < f.code.size(); ++k) {
    const bool plain = is_punct(f, k, "=");
    const bool compound = is_punct(f, k, "+=") || is_punct(f, k, "-=");
    if (!plain && !compound) continue;
    if (!is_ident(f, k - 1)) continue;
    const UnitInfo lu = unit_of(tok(f, k - 1).text);
    if (!lu.unit) continue;
    DimParser p(f, k + 1, f.code.size());
    const auto rhs = p.parse();
    if (!rhs || !rhs->has_unit_ident) continue;
    if (rhs->dim == lu.dim) continue;
    out.push_back({"unit-flow", f.path, tok(f, k).line,
                   "assigns a " + dim_string(rhs->dim) + " expression to '" +
                       tok(f, k - 1).text + "' (_" + lu.norm + ", " + dim_string(lu.dim) +
                       "): unit mismatch; route the conversion through a named helper"});
  }
}

}  // namespace

namespace detail {

void add_sema_rules(std::vector<Rule>& out) {
  out.push_back({"guarded-by",
                 "MOSAIQ_GUARDED_BY fields only touched with their mutex held; "
                 "MOSAIQ_THREAD_SAFE classes guard every mutable member",
                 nullptr, check_guarded_by});
  out.push_back({"parallel-capture",
                 "no unguarded mutation of statics/globals/members from parallel_map "
                 "lambdas",
                 nullptr, check_parallel_capture});
  out.push_back({"nested-parallel",
                 "parallel lambdas must not submit (or transitively reach) further "
                 "parallel work",
                 nullptr, check_nested_parallel});
  out.push_back({"determinism-flow",
                 "no wall-clock seeds, pointer-ordered comparators, or unordered "
                 "iteration order escaping into outputs",
                 nullptr, check_determinism_flow});
  out.push_back({"unit-flow",
                 "unit-suffix dimensions must be consistent through assignments and "
                 "arithmetic in sim|net|stats|obs",
                 check_unit_flow, nullptr});
}

}  // namespace detail

}  // namespace mosaiq::lint
