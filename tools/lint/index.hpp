// Cross-file symbol index for mosaiq-lint.
//
// Built once per analyze_program run from every TU's Sema, then handed
// to the per-file rules: a .cpp that defines `BuildCache::stats` can check
// the MOSAIQ_GUARDED_BY annotations that live in build_cache.hpp, a
// range-for in metrics.cpp can learn that the container it iterates is
// an unordered member declared in trace.hpp, and a lambda handed to
// stats::parallel_map can be told that a function it calls submits to
// the thread pool in another file.
//
// The index is name-based, not ODR-accurate: two classes with the same
// name merge.  Rules therefore use it only to *add* knowledge a single
// TU cannot have, and keep their findings conservative.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/sema.hpp"

namespace mosaiq::lint {

struct IndexedField {
  std::string guarded_by;  ///< "" when unannotated
  std::string cls;
  std::string file;
  bool is_unordered = false;
  bool is_const = false;
  bool is_atomic = false;
  bool is_mutex = false;
};

struct CrossIndex {
  /// "Class::field" -> annotation/type info, merged across TUs.
  std::map<std::string, IndexedField> fields;
  /// Field name -> classes declaring it (for member lookup from .cpp
  /// method bodies, where the class of a bare identifier is the
  /// function's qualifier).
  std::map<std::string, std::set<std::string>> field_classes;
  /// Classes carrying MOSAIQ_THREAD_SAFE.
  std::set<std::string> thread_safe_classes;
  /// Function names whose bodies directly submit parallel work
  /// (stats::parallel_map or ThreadPool::run).
  std::set<std::string> direct_submitters;
  /// Transitive closure of direct_submitters over the name-based call
  /// graph.
  std::set<std::string> reaches_submit;

  const IndexedField* field(const std::string& cls, const std::string& name) const;
};

/// Builds the index over all analyzed TUs.
CrossIndex build_index(const std::vector<Sema>& tus);

/// Callee names (terminal identifier of the callee chain) invoked
/// anywhere in [begin, end) of f — shared by the index builder and the
/// nested-parallel rule.
std::set<std::string> callees_in(const SourceFile& f, std::size_t begin, std::size_t end);

/// True when [begin, end) of f contains a direct parallel submission
/// (a stats::parallel_map call or a ThreadPool run).
bool submits_parallel(const SourceFile& f, std::size_t begin, std::size_t end);

}  // namespace mosaiq::lint
