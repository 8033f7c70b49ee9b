/// \file lexer.hpp
/// A lightweight C++ tokenizer for dqos_lint (no LLVM dependency).
///
/// Produces just enough structure for the project's invariant rules:
/// identifiers, single/double-char punctuation (`::`, `->`, `+=`, `-=` are
/// merged), numbers, string/char literals (contents discarded — rule
/// matching never fires inside literals), and `#include` header names.
/// Comments are stripped, but scanned for suppression markers first:
///
///   // dqos-lint: allow(rule-a, rule-b)   — suppresses those rules on
///                                           this line and the next
///   // dqos-lint: allow-file(rule-a)      — suppresses for the whole file
///   // dqos-lint: hot                     — marks the function that starts
///                                           on/after this line as hot-path
///                                           (hot-path-transitive applies)
///   // dqos-lint: shard                   — marks the enclosing block as
///                                           shard-worker code
///                                           (shard-ownership applies)
///
/// Line numbers are 1-based and attached to every token so findings print
/// as `file:line: [rule-id] message`.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace dqos::lintkit {

struct Token {
  enum class Kind { kIdent, kPunct, kNumber, kString, kHeaderName };
  Kind kind;
  std::string text;
  int line;
};

/// One `allow(...)` / `allow-file(...)` marker occurrence, kept with its
/// source position so `--check-suppressions` can report markers that no
/// longer suppress anything.
struct AllowMarker {
  int line = 0;            ///< line the comment sits on
  std::string rule;        ///< rule id, or "*"
  bool file_scope = false;  ///< allow-file(...) vs allow(...)
};

struct LexedFile {
  std::vector<Token> tokens;
  /// line -> rule ids allowed on that line and the line after it.
  std::map<int, std::set<std::string>> line_allows;
  /// rule ids allowed anywhere in the file.
  std::set<std::string> file_allows;
  /// Every marker occurrence in source order (one entry per rule id).
  std::vector<AllowMarker> allow_markers;
  /// Lines carrying a `dqos-lint: hot` marker: the next function body at
  /// or after each is a hot-path-transitive root.
  std::set<int> hot_marks;
  /// Lines carrying a `dqos-lint: shard` marker: the block enclosing each
  /// (to its closing brace) is subject to the shard-ownership rule.
  std::set<int> shard_marks;

  /// True if `rule` is suppressed at `line` (by a same-line marker, a
  /// marker on the previous line, or a file-level marker).
  [[nodiscard]] bool allowed(const std::string& rule, int line) const;

  /// Index into `allow_markers` of the marker that suppresses `rule` at
  /// `line` (line-scoped exact match first, then line-scoped `*`, then
  /// file-scoped), or -1 when nothing suppresses it. Drives the stale-
  /// suppression check: a marker never returned here suppressed nothing.
  [[nodiscard]] int match(const std::string& rule, int line) const;
};

LexedFile lex(const std::string& src);

}  // namespace dqos::lintkit
