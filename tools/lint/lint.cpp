#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "lint/index.hpp"
#include "lint/sema.hpp"

namespace mosaiq::lint {

namespace {

/// Parses `#include <X>` / `#include "X"` out of one preprocessor line.
void parse_include(const std::string& pp, SourceFile& f) {
  std::size_t i = pp.find_first_not_of(" \t", 1);  // skip '#'
  if (i == std::string::npos || pp.compare(i, 7, "include") != 0) return;
  i = pp.find_first_not_of(" \t", i + 7);
  if (i == std::string::npos) return;
  const char open = pp[i];
  const char close = (open == '<') ? '>' : (open == '"') ? '"' : '\0';
  if (close == '\0') return;
  const std::size_t end = pp.find(close, i + 1);
  if (end == std::string::npos) return;
  const std::string name = pp.substr(i + 1, end - i - 1);  // mosaiq-lint: allow(unsigned-wrap) — end = find(close, i+1) > i here
  (open == '<' ? f.angle_includes : f.quoted_includes).push_back(name);
}

struct Suppressions {
  std::set<std::string> file_wide;
  std::map<std::string, std::set<std::size_t>> by_line;  // rule -> lines

  bool covers(const Finding& fi) const {
    if (file_wide.count(fi.rule)) return true;
    const auto it = by_line.find(fi.rule);
    return it != by_line.end() && it->second.count(fi.line) != 0;
  }
};

/// Splits "a, b ,c" into trimmed names.
std::vector<std::string> split_rule_list(std::string_view s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string_view::npos) comma = s.size();
    std::string_view part = s.substr(start, comma - start);  // mosaiq-lint: allow(unsigned-wrap) — comma = find(',', start) >= start
    while (!part.empty() && std::isspace(static_cast<unsigned char>(part.front())))
      part.remove_prefix(1);
    while (!part.empty() && std::isspace(static_cast<unsigned char>(part.back())))
      part.remove_suffix(1);
    if (!part.empty()) out.emplace_back(part);
    start = comma + 1;
  }
  return out;
}

Suppressions parse_suppressions(const SourceFile& f) {
  Suppressions sup;
  // Lines holding at least one code token, for "comment on its own
  // line applies to the next code line" resolution.
  std::set<std::size_t> code_lines;
  for (const std::size_t ci : f.code) code_lines.insert(f.tokens[ci].line);

  constexpr std::string_view kTag = "mosaiq-lint:";
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::Comment) continue;
    const std::size_t tag = t.text.find(kTag);
    if (tag == std::string::npos) continue;
    std::string_view rest = std::string_view(t.text).substr(tag + kTag.size());
    while (!rest.empty() && std::isspace(static_cast<unsigned char>(rest.front())))
      rest.remove_prefix(1);

    const bool file_wide = rest.rfind("allow-file(", 0) == 0;
    const bool line_wise = !file_wide && rest.rfind("allow(", 0) == 0;
    if (!file_wide && !line_wise) continue;
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')', open);
    if (close == std::string_view::npos) continue;
    const auto rules = split_rule_list(
        rest.substr(open + 1, close - open - 1));  // mosaiq-lint: allow(unsigned-wrap) — close = find(')', open) > open

    for (const std::string& r : rules) {
      if (file_wide) {
        sup.file_wide.insert(r);
        continue;
      }
      sup.by_line[r].insert(t.line);
      if (!code_lines.count(t.line)) {
        // Stand-alone comment: also cover the next code line.
        const auto next = code_lines.upper_bound(t.line);
        if (next != code_lines.end()) sup.by_line[r].insert(*next);
      }
    }
  }
  return sup;
}

void json_escape(const std::string& s, std::string& out) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

bool SourceFile::is_header() const {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

const std::string& SourceFile::line_text(std::size_t line_no) const {
  static const std::string kEmpty;
  if (line_no == 0 || line_no > lines.size()) return kEmpty;
  return lines[line_no - 1];
}

SourceFile analyze(std::string path, std::string text) {
  SourceFile f;
  f.path = std::move(path);
  f.text = std::move(text);
  f.tokens = lex(f.text);
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind == TokKind::Preproc) {
      parse_include(t.text, f);
    } else if (t.kind != TokKind::Comment) {
      f.code.push_back(i);
    }
  }
  std::istringstream is(f.text);
  std::string line;
  while (std::getline(is, line)) f.lines.push_back(line);
  return f;
}

SourceFile analyze_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return analyze(path, ss.str());
}

const std::vector<Rule>& registry() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> r;
    detail::add_token_rules(r);
    detail::add_sema_rules(r);
    detail::add_cfg_rules(r);
    return r;
  }();
  return rules;
}

namespace {

/// run_rules against a caller-provided symbol model and cross-file index.
void run_rules(const SourceFile& f, const Sema& sema, const CrossIndex& index,
               const std::vector<std::string>& rules, std::vector<Finding>& out) {
  const Suppressions sup = parse_suppressions(f);
  std::vector<Finding> raw;
  for (const Rule& r : registry()) {
    if (!rules.empty() && std::find(rules.begin(), rules.end(), r.name) == rules.end()) continue;
    if (r.check) r.check(f, raw);
    if (r.sema_check) r.sema_check(sema, index, raw);
  }
  std::stable_sort(raw.begin(), raw.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  for (Finding& fi : raw) {
    if (!sup.covers(fi)) out.push_back(std::move(fi));
  }
}

}  // namespace

void run_rules(const SourceFile& f, const std::vector<std::string>& rules,
               std::vector<Finding>& out) {
  const Sema sema = build_sema(f);
  const CrossIndex index = build_index({sema});
  run_rules(f, sema, index, rules, out);
}

std::vector<std::string> collect_sources(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    if (fs::is_regular_file(p)) {
      files.push_back(p);
      continue;
    }
    if (!fs::is_directory(p)) throw std::runtime_error("no such file or directory: " + p);
    for (const auto& e : fs::recursive_directory_iterator(p)) {
      if (!e.is_regular_file()) continue;
      const std::string ext = e.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp") files.push_back(e.path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::vector<Finding> analyze_program(const std::vector<std::string>& files,
                                     const std::vector<std::string>& rules) {
  // Each Sema points into its SourceFile: size `sources` up front.
  std::vector<SourceFile> sources(files.size());
  std::vector<Sema> tus(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    sources[i] = analyze_file(files[i]);
    tus[i] = build_sema(sources[i]);
  }
  const CrossIndex index = build_index(tus);
  std::vector<Finding> out;
  for (std::size_t i = 0; i < files.size(); ++i) run_rules(sources[i], tus[i], index, rules, out);
  return out;
}

std::string format_human(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message + "\n";
  }
  return out;
}

std::string format_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i ? ",\n " : "\n ";
    out += "{\"rule\":\"";
    json_escape(f.rule, out);
    out += "\",\"file\":\"";
    json_escape(f.file, out);
    out += "\",\"line\":" + std::to_string(f.line) + ",\"message\":\"";
    json_escape(f.message, out);
    out += "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string format_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
      "master/Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\n";
  out += " \"runs\":[{\"tool\":{\"driver\":{\"name\":\"mosaiq-lint\",\"rules\":[";
  const std::vector<Rule>& rules = registry();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"id\":\"";
    json_escape(rules[i].name, out);
    out += "\",\"shortDescription\":{\"text\":\"";
    json_escape(rules[i].description, out);
    out += "\"}}";
  }
  out += "\n  ]}},\n  \"results\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"ruleId\":\"";
    json_escape(f.rule, out);
    out += "\",\"level\":\"warning\",\"message\":{\"text\":\"";
    json_escape(f.message, out);
    out += "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"";
    json_escape(f.file, out);
    out += "\"},\"region\":{\"startLine\":" + std::to_string(f.line == 0 ? 1 : f.line) +
           "}}}]";
    if (!f.fixes.empty()) {
      out += ",\"fixes\":[{\"artifactChanges\":[{\"artifactLocation\":{\"uri\":\"";
      json_escape(f.file, out);
      out += "\"},\"replacements\":[";
      for (std::size_t e = 0; e < f.fixes.size(); ++e) {
        const TextEdit& ed = f.fixes[e];
        if (e) out += ",";
        out += "{\"deletedRegion\":{\"charOffset\":" + std::to_string(ed.begin) +
               ",\"charLength\":" + std::to_string(ed.end - ed.begin) +
               "},\"insertedContent\":{\"text\":\"";
        json_escape(ed.text, out);
        out += "\"}}";
      }
      out += "]}]}]";
    }
    out += "}";
  }
  out += findings.empty() ? "]}]}\n" : "\n  ]}]}\n";
  return out;
}

}  // namespace mosaiq::lint
