#include "lint/lexer.hpp"

#include <cctype>
#include <cstddef>

namespace dqos::lintkit {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// A raw-string d-char: anything but parens, backslash, quote and
/// whitespace. Limiting the scan to valid d-chars keeps a stray `R"` from
/// swallowing the rest of the file when no raw string actually follows.
bool is_raw_delim_char(char c) {
  return c != '(' && c != ')' && c != '\\' && c != '"' && c != ' ' &&
         c != '\t' && c != '\n' && c != '\r' && c != '\f' && c != '\v';
}

/// Parses a `dqos-lint:` marker out of one comment (delimiters included
/// in `text`) and records it against `line`. Only a marker at the *start*
/// of the comment counts — after the `//`, `/*`, or doc opener and
/// leading whitespace — so prose that merely mentions a marker, and the
/// indented `// dqos-lint:` examples inside doc comments, register
/// nothing (they begin with prose or with a second `//`).
void scan_comment(const std::string& text, int line, LexedFile& out) {
  static const std::string tag = "dqos-lint:";
  std::size_t p = 0;
  if (text.compare(0, 2, "//") == 0 || text.compare(0, 2, "/*") == 0) p = 2;
  if (p == 2 && p < text.size() &&
      (text[p] == '/' || text[p] == '*' || text[p] == '!')) {
    ++p;  // doc opener: ///, //!, /**, /*!
  }
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
  if (text.compare(p, tag.size(), tag) != 0) return;
  p += tag.size();
  while (p < text.size() && text[p] == ' ') ++p;
  bool file_scope = false;
  if (text.compare(p, 11, "allow-file(") == 0) {
    file_scope = true;
    p += 11;
  } else if (text.compare(p, 6, "allow(") == 0) {
    p += 6;
  } else if (text.compare(p, 3, "hot") == 0 &&
             (p + 3 >= text.size() ||
              std::isalnum(static_cast<unsigned char>(text[p + 3])) == 0)) {
    // The `hot` mark; the rule finds the next function body.
    out.hot_marks.insert(line);
    return;
  } else if (text.compare(p, 5, "shard") == 0 &&
             (p + 5 >= text.size() ||
              std::isalnum(static_cast<unsigned char>(text[p + 5])) == 0)) {
    // The `shard` mark: the enclosing block runs on a shard worker
    // (shard-ownership applies to it).
    out.shard_marks.insert(line);
    return;
  } else {
    return;
  }
  const std::size_t close = text.find(')', p);
  if (close == std::string::npos) return;
  // Split the comma-separated rule ids.
  std::string id;
  for (std::size_t i = p; i <= close; ++i) {
    const char c = text[i];
    if (c == ',' || c == ')') {
      if (!id.empty()) {
        (file_scope ? out.file_allows : out.line_allows[line]).insert(id);
        out.allow_markers.push_back(AllowMarker{line, id, file_scope});
      }
      id.clear();
    } else if (c != ' ') {
      id += c;
    }
  }
}

}  // namespace

bool LexedFile::allowed(const std::string& rule, int line) const {
  return match(rule, line) >= 0;
}

int LexedFile::match(const std::string& rule, int line) const {
  int file_scope_hit = -1;
  int wildcard_hit = -1;
  for (std::size_t m = 0; m < allow_markers.size(); ++m) {
    const AllowMarker& a = allow_markers[m];
    const bool rule_hit = a.rule == rule;
    const bool star_hit = a.rule == "*";
    if (!rule_hit && !star_hit) continue;
    if (a.file_scope) {
      if (file_scope_hit < 0 ||
          (rule_hit &&
           allow_markers[static_cast<std::size_t>(file_scope_hit)].rule ==
               "*")) {
        file_scope_hit = static_cast<int>(m);
      }
      continue;
    }
    if (a.line != line && a.line != line - 1) continue;
    if (rule_hit) return static_cast<int>(m);
    if (wildcard_hit < 0) wildcard_hit = static_cast<int>(m);
  }
  if (wildcard_hit >= 0) return wildcard_hit;
  return file_scope_hit;
}

LexedFile lex(const std::string& src) {
  LexedFile out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  // After `# include`, the next `<...>` or "..." is a header-name, not a
  // comparison / string.
  bool expect_header = false;

  auto push = [&](Token::Kind k, std::string text) {
    out.tokens.push_back(Token{k, std::move(text), line});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      expect_header = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Line continuation inside a directive.
    if (c == '\\' && i + 1 < n && src[i + 1] == '\n') {
      ++line;
      i += 2;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      // A backslash at end of line splices the next line into the comment
      // (phase-2 line splicing happens before comment stripping), so
      // `// ... \` comments out the following line too.
      const int start_line = line;
      std::size_t end = i;
      for (;;) {
        const std::size_t eol = src.find('\n', end);
        if (eol == std::string::npos) {
          end = n;
          break;
        }
        std::size_t last = eol;  // last non-CR char before the newline
        while (last > i && (src[last - 1] == '\r')) --last;
        if (last > i && src[last - 1] == '\\') {
          ++line;
          end = eol + 1;
          continue;
        }
        end = eol;
        break;
      }
      scan_comment(src.substr(i, end - i), start_line, out);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const std::size_t close = src.find("*/", i + 2);
      const std::size_t end = close == std::string::npos ? n : close + 2;
      scan_comment(src.substr(i, end - i), start_line, out);
      for (std::size_t j = i; j < end; ++j) {
        if (src[j] == '\n') ++line;
      }
      i = end;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(src[j])) ++j;
      std::string word = src.substr(i, j - i);
      // Raw string literal: the prefix ends in R and a quote follows.
      if (j < n && src[j] == '"' && (word == "R" || word == "u8R" ||
                                     word == "uR" || word == "UR" || word == "LR")) {
        // The delimiter is at most 16 d-chars (no parens, quotes, spaces,
        // newlines); anything else means this is not a raw string after
        // all, and falling through lexes the quote as an ordinary string
        // instead of swallowing the rest of the file.
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && delim.size() <= 16 && is_raw_delim_char(src[k])) {
          delim += src[k++];
        }
        if (k < n && src[k] == '(' && delim.size() <= 16) {
          const std::string closer = ")" + delim + "\"";
          const std::size_t close = src.find(closer, k);
          const std::size_t end =
              close == std::string::npos ? n : close + closer.size();
          push(Token::Kind::kString, "");
          for (std::size_t q = i; q < end; ++q) {
            if (src[q] == '\n') ++line;
          }
          i = end;
          continue;
        }
      }
      push(Token::Kind::kIdent, std::move(word));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // Digit separators (1'000'000) are canonicalized away so rules that
      // compare literal values (e.g. rng-stream-discipline's stream
      // constants) see one spelling; a separator is only consumed when a
      // digit/letter follows, so `f(1,'a')`-style char literals survive.
      std::string text;
      std::size_t j = i;
      while (j < n) {
        const char d = src[j];
        if (is_ident_char(d) || d == '.') {
          text += d;
          ++j;
        } else if (d == '\'' && j + 1 < n && is_ident_char(src[j + 1])) {
          ++j;  // separator: dropped from the canonical text
        } else {
          break;
        }
      }
      push(Token::Kind::kNumber, std::move(text));
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;
        ++j;
      }
      if (expect_header && quote == '"') {
        push(Token::Kind::kHeaderName, src.substr(i + 1, j - (i + 1)));
        expect_header = false;
      } else {
        push(Token::Kind::kString, "");
      }
      i = j < n ? j + 1 : n;
      continue;
    }
    if (c == '<' && expect_header) {
      const std::size_t close = src.find('>', i + 1);
      const std::size_t end = close == std::string::npos ? n : close;
      push(Token::Kind::kHeaderName, src.substr(i + 1, end - (i + 1)));
      expect_header = false;
      i = close == std::string::npos ? n : close + 1;
      continue;
    }
    // `# include` arms header-name lexing for the rest of the line.
    if (c == '#') {
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      if (src.compare(j, 7, "include") == 0) expect_header = true;
      push(Token::Kind::kPunct, "#");
      i = j;
      continue;
    }
    // Two-char operators the rules care about; everything else is one char.
    if (i + 1 < n) {
      const std::string two = src.substr(i, 2);
      if (two == "::" || two == "->" || two == "+=" || two == "-=") {
        push(Token::Kind::kPunct, two);
        i += 2;
        continue;
      }
    }
    push(Token::Kind::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

}  // namespace dqos::lintkit
