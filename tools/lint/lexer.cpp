#include "lexer.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hirep::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-char operators that rules distinguish from their one-char prefixes
// (`=` vs `==`, `+` vs `+=`, `:` vs `::`, ...).  Longest match first.
constexpr std::string_view kOps3[] = {"<<=", ">>=", "->*", "...", "<=>"};
constexpr std::string_view kOps2[] = {"::", "->", "++", "--", "+=", "-=",
                                      "*=", "/=", "%=", "&=", "|=", "^=",
                                      "==", "!=", "<=", ">=", "&&", "||",
                                      "<<", ">>"};

}  // namespace

LexedFile lex_source(std::string source) {
  LexedFile out;
  out.source = std::move(source);
  const std::string& s = out.source;
  const std::size_t n = s.size();
  std::size_t i = 0;
  int line = 1;

  auto view = [&](std::size_t begin, std::size_t end) {
    return std::string_view(s).substr(begin, end - begin);
  };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment — captured verbatim for suppression parsing.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      std::size_t begin = i + 2;
      while (i < n && s[i] != '\n') ++i;
      out.comments.push_back({line, std::string(view(begin, i))});
      continue;
    }
    // Block comment — skipped, but newlines still advance the line count.
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const int start_line = line;
      std::size_t begin = i + 2;
      i += 2;
      while (i + 1 < n && !(s[i] == '*' && s[i + 1] == '/')) {
        if (s[i] == '\n') ++line;
        ++i;
      }
      std::size_t end = i < n ? i : n;
      out.comments.push_back({start_line, std::string(view(begin, end))});
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Preprocessor directive: consume through EOL (honouring continuations)
    // so `#include <mutex>` never produces < mutex > tokens.  The directive
    // body is deliberately invisible to rules — include hygiene is
    // clang-tidy's job, not this tool's.
    if (c == '#') {
      while (i < n && s[i] != '\n') {
        if (s[i] == '\\' && i + 1 < n && s[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && s[d] != '(') ++d;
      std::string closer;
      closer.reserve(d - i);  // ")" + delimiter + quote
      closer.push_back(')');
      closer.append(view(i + 2, d));
      closer.push_back('"');
      const int start_line = line;
      std::size_t body = d + 1;
      std::size_t end = s.find(closer, body);
      if (end == std::string::npos) end = n;
      for (std::size_t k = i; k < end && k < n; ++k) {
        if (s[k] == '\n') ++line;
      }
      out.tokens.push_back({TokKind::String, view(body, end), start_line});
      i = end + closer.size() <= n ? end + closer.size() : n;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t begin = i + 1;
      ++i;
      while (i < n && s[i] != quote) {
        if (s[i] == '\\' && i + 1 < n) ++i;  // escape
        if (s[i] == '\n') ++line;            // unterminated; stay sane
        ++i;
      }
      out.tokens.push_back(
          {quote == '"' ? TokKind::String : TokKind::CharLit, view(begin, i),
           line});
      if (i < n) ++i;  // closing quote
      continue;
    }
    if (ident_start(c)) {
      std::size_t begin = i;
      while (i < n && ident_char(s[i])) ++i;
      out.tokens.push_back({TokKind::Identifier, view(begin, i), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
      // pp-number: digits, idents (hex/suffixes), digit separators, '.',
      // and exponent signs after e/E/p/P.
      std::size_t begin = i;
      ++i;
      while (i < n) {
        const char p = s[i];
        if (ident_char(p) || p == '.' || p == '\'') {
          ++i;
        } else if ((p == '+' || p == '-') &&
                   (s[i - 1] == 'e' || s[i - 1] == 'E' || s[i - 1] == 'p' ||
                    s[i - 1] == 'P')) {
          ++i;
        } else {
          break;
        }
      }
      out.tokens.push_back({TokKind::Number, view(begin, i), line});
      continue;
    }
    // Punctuation: longest-match the multi-char operators.
    bool matched = false;
    for (std::string_view op : kOps3) {
      if (s.compare(i, op.size(), op) == 0) {
        out.tokens.push_back({TokKind::Punct, view(i, i + op.size()), line});
        i += op.size();
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (std::string_view op : kOps2) {
      if (s.compare(i, op.size(), op) == 0) {
        out.tokens.push_back({TokKind::Punct, view(i, i + op.size()), line});
        i += op.size();
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.tokens.push_back({TokKind::Punct, view(i, i + 1), line});
    ++i;
  }
  return out;
}

LexedFile lex_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("hirep-lint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return lex_source(buf.str());
}

}  // namespace hirep::lint
