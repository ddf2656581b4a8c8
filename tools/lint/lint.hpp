// mosaiq-lint core: file model, rule registry, suppression handling,
// the one-program pass over a file set, and reporting.  The CLI
// (main.cpp) and the fixture tests (tests/test_lint*.cpp) both sit on
// this API so findings can be asserted exactly, in process.
//
// Suppressions
//   // mosaiq-lint: allow(rule-a, rule-b)   — suppresses those rules on
//       this line, or on the next code line when the comment stands
//       alone on its own line.
//   // mosaiq-lint: allow-file(rule-a)      — suppresses for the file.
//
// Exit-code contract of the CLI: 0 clean, 1 unsuppressed findings,
// 2 usage or I/O error.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/token.hpp"

namespace mosaiq::lint {

struct Sema;        // sema.hpp
struct CrossIndex;  // index.hpp

/// One machine-applicable text edit: replace the byte range
/// [begin, end) of the finding's file with `text` (begin == end for a
/// pure insertion).  Offsets index the file bytes as analyzed.
struct TextEdit {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string text;
};

struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
  /// Machine-applicable repair (empty when the rule has none); applied
  /// by `mosaiq-lint --fix` (fix.hpp), carried into the SARIF output.
  std::vector<TextEdit> fixes;
};

/// One source file, lexed and indexed for the rules.
struct SourceFile {
  std::string path;               ///< as given (used for scoping + reports)
  std::string text;               ///< raw bytes
  std::vector<Token> tokens;      ///< full stream, comments included
  std::vector<std::size_t> code;  ///< indices into tokens, comments/preproc excluded
  std::vector<std::string> angle_includes;   ///< X from `#include <X>`
  std::vector<std::string> quoted_includes;  ///< X from `#include "X"`
  std::vector<std::string> lines;            ///< raw split lines (1-based via line N-1)

  bool is_header() const;

  /// Raw text of a 1-based line ("" when out of range).
  const std::string& line_text(std::size_t line_no) const;
};

/// Builds the SourceFile model from raw text.
SourceFile analyze(std::string path, std::string text);

/// Reads the file from disk and analyzes it.  Throws std::runtime_error
/// when unreadable.
SourceFile analyze_file(const std::string& path);

struct Rule {
  std::string name;
  std::string description;
  /// Token-level check (may be nullptr for sema-only rules).
  void (*check)(const SourceFile&, std::vector<Finding>&) = nullptr;
  /// Flow-aware check over the per-TU symbol model plus the cross-file
  /// index (may be nullptr for token-only rules).
  void (*sema_check)(const Sema&, const CrossIndex&, std::vector<Finding>&) = nullptr;
};

/// All registered rules, in reporting order.
const std::vector<Rule>& registry();

namespace detail {
/// Internal rule providers; registry() assembles them (token rules
/// first, then the flow-aware v2 families, then the path-sensitive v3
/// families built on cfg.hpp/dataflow.hpp).
void add_token_rules(std::vector<Rule>& out);
void add_sema_rules(std::vector<Rule>& out);
void add_cfg_rules(std::vector<Rule>& out);
}  // namespace detail

/// Runs `rules` (all registered rules when empty) over the file and
/// appends unsuppressed findings.  Builds a single-file Sema and index
/// internally; analyze_program runs the same rules against a repo-wide
/// index.
void run_rules(const SourceFile& f, const std::vector<std::string>& rules,
               std::vector<Finding>& out);

/// Recursively collects .hpp/.cpp files under each path (a path naming
/// a regular file is taken as-is), sorted for deterministic reports.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths);

/// Analyzes `files` (paths as produced by collect_sources) as one
/// program, in one serial pass: lexes each file and builds its symbol
/// model, merges them into the cross-file index, then runs `rules`
/// (all registered rules when empty) on each file in input order — so
/// a .cpp is checked against annotations living in the headers it
/// includes.  Throws std::runtime_error on unreadable input.
std::vector<Finding> analyze_program(const std::vector<std::string>& files,
                                     const std::vector<std::string>& rules);

/// `file:line: [rule] message` per finding.
std::string format_human(const std::vector<Finding>& findings);

/// JSON array of {rule, file, line, message}.
std::string format_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 log (one run, rule metadata from the registry).
std::string format_sarif(const std::vector<Finding>& findings);

}  // namespace mosaiq::lint
