// mosaiq-lint CLI.
//
//   mosaiq-lint [--json|--sarif] [--rules a,b] [--list-rules] [--fix]
//               <file|dir>...
//
// All named files are analyzed as one program (analyze_program):
// annotations and symbol tables from headers inform findings in the
// .cpp files that use them.  --fix applies each finding's machine
// repair in place.
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage or I/O error.
// Under --fix, exit 0 also covers "every finding carried a fix and all
// were applied"; unfixable findings still exit 1.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "lint/fix.hpp"
#include "lint/lint.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mosaiq-lint [--json|--sarif] [--rules a,b] [--list-rules] [--fix]\n"
               "                   <file|dir>...\n"
               "exit codes: 0 clean (or --fix fixed everything), 1 findings,\n"
               "            2 usage/io error\n");
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mosaiq::lint;
  enum class Format { Human, Json, Sarif } format = Format::Human;
  std::vector<std::string> rules;
  bool fix_wanted = false;
  std::vector<std::string> paths;

  auto take_value = [&](int& i) -> const char* {
    return (++i < argc) ? argv[i] : nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      format = Format::Json;
    } else if (arg == "--sarif") {
      format = Format::Sarif;
    } else if (arg == "--rules") {
      const char* v = take_value(i);
      if (!v) return usage();
      rules = split_csv(v);
    } else if (arg == "--fix") {
      fix_wanted = true;
    } else if (arg == "--list-rules") {
      for (const Rule& r : registry())
        std::printf("%-18s %s\n", r.name.c_str(), r.description.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  for (const std::string& r : rules) {
    const auto& reg = registry();
    const bool known =
        std::any_of(reg.begin(), reg.end(), [&](const Rule& x) { return x.name == r; });
    if (!known) {
      std::fprintf(stderr, "mosaiq-lint: unknown rule '%s' (try --list-rules)\n", r.c_str());
      return 2;
    }
  }

  std::vector<std::string> files;
  std::vector<Finding> findings;
  try {
    files = collect_sources(paths);
    findings = analyze_program(files, rules);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mosaiq-lint: %s\n", e.what());
    return 2;
  }

  if (fix_wanted) {
    FixStats fs;
    try {
      fs = apply_fixes(findings);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mosaiq-lint: %s\n", e.what());
      return 2;
    }
    const std::size_t unfixed = findings.size() - fs.findings_fixed;
    std::fprintf(stderr,
                 "mosaiq-lint: --fix applied %zu edit(s) for %zu finding(s) in %zu "
                 "file(s); %zu finding(s) have no machine fix\n",
                 fs.edits_applied, fs.findings_fixed, fs.files_changed, unfixed);
    if (unfixed > 0) {
      std::vector<Finding> remaining;
      for (const Finding& fd : findings)
        if (fd.fixes.empty()) remaining.push_back(fd);
      std::cout << format_human(remaining);
    }
    return unfixed == 0 ? 0 : 1;
  }

  switch (format) {
    case Format::Json: std::cout << format_json(findings); break;
    case Format::Sarif: std::cout << format_sarif(findings); break;
    case Format::Human:
      std::cout << format_human(findings);
      std::fprintf(stderr, "mosaiq-lint: %zu finding(s) across %zu file(s)\n",
                   findings.size(), files.size());
      break;
  }
  return findings.empty() ? 0 : 1;
}
