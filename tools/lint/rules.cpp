#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>

namespace dqos::lintkit {
namespace {

using TokenVec = std::vector<Token>;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool contains_ci(const std::string& hay, const std::string& needle) {
  std::string lower = hay;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return lower.find(needle) != std::string::npos;
}

bool is_ident(const TokenVec& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent && t[i].text == text;
}
bool is_punct(const TokenVec& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == text;
}

struct Sink {
  const std::string& file;
  const LexedFile& lx;
  std::vector<Finding>& out;
  void add(int line, const char* rule, std::string message) const {
    out.push_back(Finding{file, line, rule, std::move(message),
                          lx.allowed(rule, line)});
  }
};

// ---------------------------------------------------------------------------
// no-wallclock
// ---------------------------------------------------------------------------

void check_wallclock(const Sink& sink) {
  const TokenVec& t = sink.lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Token::Kind::kHeaderName) {
      for (const char* h : tables::kWallclockHeaders) {
        if (t[i].text == h) {
          sink.add(t[i].line, "no-wallclock",
                   "#include <" + t[i].text +
                       "> — wall-clock/randomness headers are confined to "
                       "src/util/rng*");
        }
      }
      continue;
    }
    if (t[i].kind != Token::Kind::kIdent) continue;
    for (const char* id : tables::kWallclockIdents) {
      if (t[i].text == id) {
        sink.add(t[i].line, "no-wallclock",
                 "'" + t[i].text + "' — simulation code must draw time from "
                                   "the event calendar and randomness from "
                                   "util/rng");
      }
    }
    if (wallclock_call_site(t, i)) {
      sink.add(t[i].line, "no-wallclock",
               "'" + t[i].text + "()' reads the wall clock / libc RNG — use "
                                 "the simulator clock or util/rng");
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iteration
// ---------------------------------------------------------------------------

/// Finds declarations `unordered_map<K, V> name` / `unordered_set<K> name`
/// whose key type K mentions a pointer or FlowId, and records `name`.
std::set<std::string> collect_nondeterministic(const TokenVec& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool is_map = is_ident(t, i, "unordered_map");
    const bool is_set = is_ident(t, i, "unordered_set");
    if ((!is_map && !is_set) || !is_punct(t, i + 1, "<")) continue;
    int depth = 1;
    bool key_done = false;
    bool key_flagged = false;
    std::size_t j = i + 2;
    for (; j < t.size() && depth > 0; ++j) {
      const Token& tok = t[j];
      if (tok.kind == Token::Kind::kPunct && tok.text == "<") ++depth;
      else if (tok.kind == Token::Kind::kPunct && tok.text == ">") --depth;
      else if (tok.kind == Token::Kind::kPunct && tok.text == "," && depth == 1) {
        key_done = true;
      }
      if (depth == 0) break;
      if (!key_done && (!is_map || depth >= 1)) {
        if ((tok.kind == Token::Kind::kPunct && tok.text == "*") ||
            (tok.kind == Token::Kind::kIdent && tok.text == "FlowId")) {
          key_flagged = true;
        }
      }
    }
    if (!key_flagged || j >= t.size()) continue;
    // `j` sits on the closing `>`; a following identifier is the variable
    // (or alias) name being declared.
    if (j + 1 < t.size() && t[j + 1].kind == Token::Kind::kIdent) {
      names.insert(t[j + 1].text);
    }
  }
  return names;
}

void check_unordered_iteration(const Sink& sink,
                               const std::set<std::string>& flagged) {
  if (flagged.empty()) return;
  const TokenVec& t = sink.lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for over a flagged container.
    if (is_ident(t, i, "for") && is_punct(t, i + 1, "(")) {
      int depth = 1;
      bool past_colon = false;
      for (std::size_t j = i + 2; j < t.size() && depth > 0; ++j) {
        if (t[j].kind == Token::Kind::kPunct) {
          if (t[j].text == "(") ++depth;
          else if (t[j].text == ")") --depth;
          else if (t[j].text == ":" && depth == 1) past_colon = true;
        } else if (past_colon && t[j].kind == Token::Kind::kIdent &&
                   flagged.count(t[j].text) != 0) {
          sink.add(t[i].line, "unordered-iteration",
                   "range-for over '" + t[j].text +
                       "' (unordered, pointer/FlowId-keyed): iteration order "
                       "is nondeterministic — sort keys first");
          break;
        }
      }
      continue;
    }
    // Explicit begin()/cbegin() on a flagged container.
    if (t[i].kind == Token::Kind::kIdent && flagged.count(t[i].text) != 0 &&
        is_punct(t, i + 1, ".") &&
        (is_ident(t, i + 2, "begin") || is_ident(t, i + 2, "cbegin"))) {
      sink.add(t[i].line, "unordered-iteration",
               "'" + t[i].text + ".begin()' (unordered, pointer/FlowId-keyed): "
                                 "iteration order is nondeterministic");
    }
  }
}

// ---------------------------------------------------------------------------
// per-flow-map
// ---------------------------------------------------------------------------

/// Flags declarations of unordered_map/unordered_set keyed by FlowId in
/// simulation-state code. Per-flow state lives in DenseFlowTable
/// (src/util/dense_flow_table.hpp): dense parallel vectors + an
/// open-addressing index, so it iterates deterministically, shrinks on
/// erase, and costs ~16 bytes/flow instead of a node allocation — the
/// scale refactor's bytes/host budget (DESIGN.md §13) depends on it.
void check_per_flow_map(const Sink& sink) {
  const TokenVec& t = sink.lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool is_map = is_ident(t, i, "unordered_map");
    const bool is_set = is_ident(t, i, "unordered_set");
    if ((!is_map && !is_set) || !is_punct(t, i + 1, "<")) continue;
    int depth = 1;
    bool key_done = false;
    bool flow_key = false;
    for (std::size_t j = i + 2; j < t.size() && depth > 0; ++j) {
      const Token& tok = t[j];
      if (tok.kind == Token::Kind::kPunct && tok.text == "<") ++depth;
      else if (tok.kind == Token::Kind::kPunct && tok.text == ">") --depth;
      else if (tok.kind == Token::Kind::kPunct && tok.text == "," && depth == 1) {
        key_done = true;
      }
      if (depth == 0) break;
      if (!key_done && tok.kind == Token::Kind::kIdent && tok.text == "FlowId") {
        flow_key = true;
      }
    }
    if (flow_key) {
      sink.add(t[i].line, "per-flow-map",
               "'" + t[i].text + "<FlowId, ...>' — per-flow state belongs in "
                                 "DenseFlowTable (util/dense_flow_table.hpp): "
                                 "deterministic iteration, swap-remove erase, "
                                 "and a dense footprint the 1k-host bytes/host "
                                 "budget counts on");
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-type-erasure
// ---------------------------------------------------------------------------

void check_type_erasure(const Sink& sink) {
  const TokenVec& t = sink.lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Token::Kind::kHeaderName && t[i].text == "functional") {
      sink.add(t[i].line, "hot-path-type-erasure",
               "#include <functional> in a hot-path directory — use "
               "util/callback.hpp (Callback) or sim/inline_task.hpp");
      continue;
    }
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (t[i].text == "function" && i >= 2 && is_punct(t, i - 1, "::") &&
        is_ident(t, i - 2, "std")) {
      sink.add(t[i].line, "hot-path-type-erasure",
               "std::function in a hot-path directory — PRs 2-3 "
               "de-virtualized this path; use Callback or InlineTask");
    }
    for (const char* id : tables::kTypeErasureIdents) {
      if (t[i].text == id) {
        sink.add(t[i].line, "hot-path-type-erasure",
                 "'" + t[i].text + "' in a hot-path directory — ownership "
                                   "here is unique or non-owning by design");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// float-time-accum
// ---------------------------------------------------------------------------

void check_float_time(const Sink& sink) {
  const TokenVec& t = sink.lx.tokens;
  std::set<std::string> fp_time_vars;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if ((is_ident(t, i, "double") || is_ident(t, i, "float")) &&
        t[i + 1].kind == Token::Kind::kIdent && time_like_name(t[i + 1].text)) {
      fp_time_vars.insert(t[i + 1].text);
    }
  }
  if (fp_time_vars.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || fp_time_vars.count(t[i].text) == 0) {
      continue;
    }
    const bool compound = is_punct(t, i + 1, "+=") || is_punct(t, i + 1, "-=");
    const bool rebind = is_punct(t, i + 1, "=") && i + 2 < t.size() &&
                        is_ident(t, i + 2, t[i].text.c_str()) &&
                        (is_punct(t, i + 3, "+") || is_punct(t, i + 3, "-"));
    if (compound || rebind) {
      sink.add(t[i].line, "float-time-accum",
               "accumulating '" + t[i].text +
                   "' (floating-point time): FP drift can reorder deadlines "
                   "— keep simulated time in integer picoseconds (Duration/"
                   "TimePoint)");
    }
  }
}

// ---------------------------------------------------------------------------
// unaudited-packet-free
// ---------------------------------------------------------------------------

/// Names of PacketPtr variables declared (or received as parameters) in
/// the file. Freeing one without the pool's retirement accounting breaks
/// the custody census the invariant auditor checks.
std::set<std::string> collect_packet_ptrs(const TokenVec& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is_ident(t, i, "PacketPtr") && t[i + 1].kind == Token::Kind::kIdent) {
      names.insert(t[i + 1].text);
    }
  }
  return names;
}

void check_packet_free(const Sink& sink) {
  const TokenVec& t = sink.lx.tokens;
  const std::set<std::string> ptrs = collect_packet_ptrs(t);
  if (ptrs.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || ptrs.count(t[i].text) == 0) {
      continue;
    }
    const bool reset_call = is_punct(t, i + 1, ".") &&
                            is_ident(t, i + 2, "reset") &&
                            is_punct(t, i + 3, "(");
    const bool null_assign =
        is_punct(t, i + 1, "=") && is_ident(t, i + 2, "nullptr");
    if (reset_call || null_assign) {
      sink.add(t[i].line, "unaudited-packet-free",
               "'" + t[i].text +
                   "' is freed without retirement accounting — drop paths "
                   "must call retire_packet() so the custody census "
                   "(fault/auditor.hpp) stays exact");
    }
  }
}

}  // namespace

bool wallclock_call_site(const std::vector<Token>& t, std::size_t i) {
  bool named = false;
  for (const char* fn : tables::kWallclockCalls) {
    if (t[i].kind == Token::Kind::kIdent && t[i].text == fn) named = true;
  }
  if (!named || !is_punct(t, i + 1, "(")) return false;
  // Member access (`x.time(...)`, `p->clock(...)`) is some other API;
  // only free/std-qualified calls are the libc wall-clock ones.
  if (i > 0 && (is_punct(t, i - 1, ".") || is_punct(t, i - 1, "->"))) {
    return false;
  }
  if (i > 0 && is_punct(t, i - 1, "::")) {
    // Qualified: flag `std::time(...)` and the global `::time(...)`, not
    // `SomeType::time(...)`.
    return !(i >= 2 && t[i - 2].kind == Token::Kind::kIdent &&
             t[i - 2].text != "std");
  }
  if (i > 0) {
    // Unqualified: a call site follows an operator or `return`; a
    // declaration (`Duration time(...)`) follows a type name, `&`, `*`
    // or `>` and is not a wall-clock read.
    static const std::array<const char*, 11> kCallPrev = {
        "(", ",", "=", ";", "{", "}", "?", ":", "|", "&&", "!"};
    return is_ident(t, i - 1, "return") ||
           std::any_of(kCallPrev.begin(), kCallPrev.end(),
                       [&](const char* p) { return is_punct(t, i - 1, p); });
  }
  return true;
}

bool time_like_name(const std::string& name) {
  return contains_ci(name, "time") || contains_ci(name, "now") ||
         contains_ci(name, "elapsed") || contains_ci(name, "deadline");
}

FileScope classify(const std::string& rel_path) {
  FileScope s;
  s.rng_exempt = starts_with(rel_path, "src/util/rng");
  s.hot_path = starts_with(rel_path, "src/sim/") ||
               starts_with(rel_path, "src/switchfab/");
  s.sim_state = starts_with(rel_path, "src/");
  return s;
}

std::set<std::string> nondeterministic_containers(const LexedFile& lx) {
  return collect_nondeterministic(lx.tokens);
}

void run_rules(const std::string& rel_path, const LexedFile& lx,
               const std::set<std::string>& companion_containers,
               std::vector<Finding>& out) {
  const FileScope scope = classify(rel_path);
  const Sink sink{rel_path, lx, out};
  if (!scope.rng_exempt) check_wallclock(sink);
  if (scope.hot_path) check_type_erasure(sink);
  if (scope.sim_state) {
    std::set<std::string> flagged = collect_nondeterministic(lx.tokens);
    flagged.insert(companion_containers.begin(), companion_containers.end());
    check_unordered_iteration(sink, flagged);
    check_per_flow_map(sink);
    check_float_time(sink);
    check_packet_free(sink);
  }
}

}  // namespace dqos::lintkit
