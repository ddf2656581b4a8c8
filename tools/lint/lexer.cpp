#include "lint/token.hpp"
// mosaiq-lint: allow-file(unsigned-wrap) — the lexer is wall-to-wall span
// arithmetic over find() results; every subtraction is ordered by the
// preceding npos / bounds check on the same cursor.

#include <cctype>

namespace mosaiq::lint {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Multi-character operators, longest first so greedy matching works.
constexpr std::string_view kOps[] = {
    "<<=", ">>=", "...", "->*", "<=>", "::", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*",
};

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  std::size_t line = 1;
  bool at_line_start = true;  // only whitespace seen since the newline

  auto advance = [&](std::size_t n) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k, ++i) {
      if (src[i] == '\n') line++;
    }
  };

  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      advance(1);
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }

    const std::size_t tok_line = line;

    // Preprocessor directive: swallow the logical line (fold \-continuations).
    if (c == '#' && at_line_start) {
      std::size_t j = i;
      while (j < src.size()) {
        if (src[j] == '\n' && (j == 0 || src[j - 1] != '\\')) break;
        ++j;
      }
      out.push_back({TokKind::Preproc, std::string(src.substr(i, j - i)), tok_line, i});
      advance(j - i);
      continue;
    }
    at_line_start = false;

    // Comments.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      std::size_t j = src.find('\n', i);
      if (j == std::string_view::npos) j = src.size();
      out.push_back({TokKind::Comment, std::string(src.substr(i + 2, j - i - 2)), tok_line, i});
      advance(j - i);
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      std::size_t j = src.find("*/", i + 2);
      const std::size_t end = (j == std::string_view::npos) ? src.size() : j + 2;
      const std::size_t body_end = (j == std::string_view::npos) ? src.size() : j;
      out.push_back({TokKind::Comment, std::string(src.substr(i + 2, body_end - i - 2)), tok_line, i});
      advance(end - i);
      continue;
    }

    // Raw string literal.
    if (c == 'R' && i + 1 < src.size() && src[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < src.size() && src[d] != '(') ++d;
      const std::string delim = ")" + std::string(src.substr(i + 2, d - i - 2)) + "\"";
      std::size_t j = src.find(delim, d);
      const std::size_t end = (j == std::string_view::npos) ? src.size() : j + delim.size();
      const std::size_t body_end = (j == std::string_view::npos) ? src.size() : j;
      out.push_back({TokKind::String,
                     d < src.size() ? std::string(src.substr(d + 1, body_end - d - 1)) : "",
                     tok_line, i});
      advance(end - i);
      continue;
    }

    // String / char literals (escape-aware).
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < src.size() && src[j] != c) {
        if (src[j] == '\\' && j + 1 < src.size()) ++j;
        ++j;
      }
      const std::size_t end = (j < src.size()) ? j + 1 : src.size();
      out.push_back({c == '"' ? TokKind::String : TokKind::CharLit,
                     std::string(src.substr(i + 1, j - i - 1)), tok_line, i});
      advance(end - i);
      continue;
    }

    if (ident_start(c)) {
      std::size_t j = i;
      while (j < src.size() && ident_char(src[j])) ++j;
      out.push_back({TokKind::Identifier, std::string(src.substr(i, j - i)), tok_line, i});
      advance(j - i);
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < src.size() && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      // pp-number: digits, idents, dots, exponent signs, and digit
      // separators (0x10'0000), which must not open a char literal.
      std::size_t j = i;
      while (j < src.size() &&
             (ident_char(src[j]) || src[j] == '.' ||
              (src[j] == '\'' && j + 1 < src.size() && ident_char(src[j + 1])) ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                src[j - 1] == 'P')))) {
        ++j;
      }
      out.push_back({TokKind::Number, std::string(src.substr(i, j - i)), tok_line, i});
      advance(j - i);
      continue;
    }

    // Operators: longest match first, else single char.
    std::string_view rest = src.substr(i);
    std::size_t len = 1;
    for (const std::string_view op : kOps) {
      if (rest.substr(0, op.size()) == op) {
        len = op.size();
        break;
      }
    }
    out.push_back({TokKind::Punct, std::string(rest.substr(0, len)), tok_line, i});
    advance(len);
  }
  return out;
}

}  // namespace mosaiq::lint
