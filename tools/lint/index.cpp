#include "lint/index.hpp"

#include <algorithm>

namespace mosaiq::lint {

namespace {

const Token& tok(const SourceFile& f, std::size_t k) { return f.tokens[f.code[k]]; }
bool is_punct(const SourceFile& f, std::size_t k, std::string_view p) {
  return k < f.code.size() && tok(f, k).kind == TokKind::Punct && tok(f, k).text == p;
}
bool is_ident(const SourceFile& f, std::size_t k) {
  return k < f.code.size() && tok(f, k).kind == TokKind::Identifier;
}

}  // namespace

const IndexedField* CrossIndex::field(const std::string& cls, const std::string& name) const {
  const auto it = fields.find(cls + "::" + name);
  return it == fields.end() ? nullptr : &it->second;
}

std::set<std::string> callees_in(const SourceFile& f, std::size_t begin, std::size_t end) {
  static const std::set<std::string> not_calls = {
      "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast", "alignof",
      "decltype", "throw", "new", "delete"};
  std::set<std::string> out;
  for (std::size_t k = begin; k + 1 < end && k + 1 < f.code.size(); ++k) {
    if (!is_ident(f, k) || !is_punct(f, k + 1, "(")) continue;
    const std::string& name = tok(f, k).text;
    if (not_calls.count(name)) continue;
    out.insert(name);
  }
  return out;
}

bool submits_parallel(const SourceFile& f, std::size_t begin, std::size_t end) {
  bool saw_threadpool = false;
  for (std::size_t k = begin; k < end && k < f.code.size(); ++k) {
    if (!is_ident(f, k)) continue;
    const std::string& t = tok(f, k).text;
    if (t == "parallel_map") return true;
    if (t == "ThreadPool") saw_threadpool = true;
    if (t == "run" && saw_threadpool && is_punct(f, k + 1, "(") &&
        k >= 1 && (is_punct(f, k - 1, ".") || is_punct(f, k - 1, "->"))) {
      return true;
    }
  }
  return false;
}

CrossIndex build_index(const std::vector<Sema>& tus) {
  CrossIndex ix;
  // name -> callees, for the submit closure.
  std::map<std::string, std::set<std::string>> calls;

  for (const Sema& s : tus) {
    const SourceFile& f = *s.file;
    for (const SemaClass& c : s.classes) {
      if (c.thread_safe) ix.thread_safe_classes.insert(c.name);
    }
    for (const SemaField& fd : s.fields) {
      IndexedField& e = ix.fields[fd.cls + "::" + fd.name];
      if (!fd.guarded_by.empty()) e.guarded_by = fd.guarded_by;
      e.cls = fd.cls;
      e.file = f.path;
      e.is_unordered = e.is_unordered || fd.is_unordered;
      e.is_const = e.is_const || fd.is_const;
      e.is_atomic = e.is_atomic || fd.is_atomic;
      e.is_mutex = e.is_mutex || fd.is_mutex;
      ix.field_classes[fd.name].insert(fd.cls);
    }
    for (const SemaFunction& fn : s.functions) {
      const std::set<std::string> cs = callees_in(f, fn.body_begin, fn.body_end);
      calls[fn.name].insert(cs.begin(), cs.end());
      if (submits_parallel(f, fn.body_begin, fn.body_end)) {
        ix.direct_submitters.insert(fn.name);
      }
    }
  }

  // Transitive closure: F reaches submit if it is a submitter or calls
  // (by name) something that reaches.
  ix.reaches_submit = ix.direct_submitters;
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [fn, cs] : calls) {
      if (ix.reaches_submit.count(fn)) continue;
      for (const std::string& c : cs) {
        if (ix.reaches_submit.count(c)) {
          ix.reaches_submit.insert(fn);
          grew = true;
          break;
        }
      }
    }
  }
  return ix;
}

}  // namespace mosaiq::lint
