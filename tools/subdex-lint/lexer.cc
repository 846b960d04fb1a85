#include "tools/subdex-lint/lexer.h"

#include <cctype>

namespace subdex_lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  Lexer(std::string path, std::string_view text)
      : text_(text) {
    out_.path = std::move(path);
  }

  LexedFile Run() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '\\' && Peek(1) == '\n') {  // line splice (macro bodies)
        pos_ += 2;
        ++line_;
        continue;
      }
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (at_line_start_ && c == '#') {
        LexPreprocessorLine();
        continue;
      }
      at_line_start_ = false;
      if (c == '"') {
        LexString();
        continue;
      }
      if (c == '\'') {
        LexCharLiteral();
        continue;
      }
      if (c == 'R' && Peek(1) == '"') {
        LexRawString();
        continue;
      }
      if (IsIdentStart(c)) {
        LexIdent();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && std::isdigit(static_cast<unsigned char>(Peek(1))))) {
        LexNumber();
        continue;
      }
      LexPunct();
    }
    return std::move(out_);
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void Emit(Token::Kind kind, size_t begin, size_t end, int line) {
    out_.tokens.push_back(
        {kind, std::string(text_.substr(begin, end - begin)), line});
  }

  void LexLineComment() {
    const size_t begin = pos_ + 2;
    const int line = line_;
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    out_.comments.push_back(
        {line, line, std::string(text_.substr(begin, pos_ - begin))});
  }

  void LexBlockComment() {
    const size_t begin = pos_ + 2;
    const int line = line_;
    pos_ += 2;
    while (pos_ < text_.size() &&
           !(text_[pos_] == '*' && Peek(1) == '/')) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
    const size_t end = pos_;
    if (pos_ < text_.size()) pos_ += 2;  // consume */
    out_.comments.push_back(
        {line, line_, std::string(text_.substr(begin, end - begin))});
  }

  // Consumes a whole directive line including `\` continuations. An
  // #include path is captured; trailing `//` comments on the directive
  // line are still recorded (justification comments sit there). A
  // #define's replacement list is code like any other, so the directive
  // stops after the macro name (and parameter list) and the main loop
  // lexes the rest of the logical line into tokens.
  void LexPreprocessorLine() {
    const int line = line_;
    size_t p = pos_ + 1;
    while (p < text_.size() && (text_[p] == ' ' || text_[p] == '\t')) ++p;
    size_t kw_end = p;
    while (kw_end < text_.size() && IsIdentChar(text_[kw_end])) ++kw_end;
    const std::string_view keyword = text_.substr(p, kw_end - p);
    if (keyword == "define") {
      size_t q = kw_end;
      while (q < text_.size() && (text_[q] == ' ' || text_[q] == '\t')) ++q;
      while (q < text_.size() && IsIdentChar(text_[q])) ++q;
      if (q < text_.size() && text_[q] == '(') {  // function-like macro
        while (q < text_.size() && text_[q] != ')' && text_[q] != '\n') {
          if (text_[q] == '\\' && q + 1 < text_.size() &&
              text_[q + 1] == '\n') {
            ++line_;
            ++q;
          }
          ++q;
        }
        if (q < text_.size() && text_[q] == ')') ++q;
      }
      pos_ = q;
      at_line_start_ = false;
      return;
    }
    if (keyword == "include") {
      size_t q = kw_end;
      while (q < text_.size() && (text_[q] == ' ' || text_[q] == '\t')) ++q;
      if (q < text_.size() && (text_[q] == '"' || text_[q] == '<')) {
        const char close = text_[q] == '"' ? '"' : '>';
        const size_t path_begin = q + 1;
        size_t path_end = path_begin;
        while (path_end < text_.size() && text_[path_end] != close &&
               text_[path_end] != '\n') {
          ++path_end;
        }
        out_.includes.push_back(
            {line, std::string(text_.substr(path_begin, path_end - path_begin)),
             close == '>'});
      }
    }
    // Consume to end of line, honoring continuations and embedded comments.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '/' && Peek(1) == '/') {
        LexLineComment();
        continue;  // LexLineComment stops before the newline
      }
      if (c == '/' && Peek(1) == '*') {
        LexBlockComment();
        continue;
      }
      if (c == '\\' && Peek(1) == '\n') {
        pos_ += 2;
        ++line_;
        continue;
      }
      if (c == '\n') break;  // main loop handles the newline
      ++pos_;
    }
    at_line_start_ = true;
  }

  void LexString() {
    const size_t begin = pos_;
    const int line = line_;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        if (text_[pos_ + 1] == '\n') ++line_;
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '\n') {  // unterminated; stop at the line break
        break;
      }
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') ++pos_;
    Emit(Token::Kind::kString, begin, pos_, line);
  }

  void LexCharLiteral() {
    const size_t begin = pos_;
    const int line = line_;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '\n') break;
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '\'') ++pos_;
    Emit(Token::Kind::kChar, begin, pos_, line);
  }

  void LexRawString() {
    const size_t begin = pos_;
    const int line = line_;
    size_t p = pos_ + 2;  // past R"
    size_t delim_end = p;
    while (delim_end < text_.size() && text_[delim_end] != '(' &&
           delim_end - p < 16) {
      ++delim_end;
    }
    if (delim_end >= text_.size() || text_[delim_end] != '(') {
      // Not actually a raw string (e.g. `R"` at EOF); lex as ident + string.
      Emit(Token::Kind::kIdent, pos_, pos_ + 1, line);
      ++pos_;
      return;
    }
    // Appended piece by piece: GCC 12 reports a false -Wrestrict overlap
    // for an operator+ chain here at -O3.
    std::string closer = ")";
    closer += text_.substr(p, delim_end - p);
    closer += '"';
    size_t q = delim_end + 1;
    while (q < text_.size() && text_.substr(q, closer.size()) != closer) {
      if (text_[q] == '\n') ++line_;
      ++q;
    }
    if (q < text_.size()) q += closer.size();
    Emit(Token::Kind::kString, begin, q, line);
    pos_ = q;
  }

  void LexIdent() {
    const size_t begin = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    Emit(Token::Kind::kIdent, begin, pos_, line_);
  }

  // pp-number, loosely: digits plus idents/dots/quotes and sign chars
  // after e/E/p/P. Lint rules never read numeric values, so precision is
  // unnecessary — only the token boundary matters.
  void LexNumber() {
    const size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (IsIdentChar(c) || c == '.' || c == '\'') {
        ++pos_;
        continue;
      }
      if ((c == '+' || c == '-') && pos_ > begin) {
        const char prev = text_[pos_ - 1];
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          ++pos_;
          continue;
        }
      }
      break;
    }
    Emit(Token::Kind::kNumber, begin, pos_, line_);
  }

  void LexPunct() {
    // "::" and "->" are the two multi-char tokens the checks navigate by.
    if (text_[pos_] == ':' && Peek(1) == ':') {
      Emit(Token::Kind::kPunct, pos_, pos_ + 2, line_);
      pos_ += 2;
      return;
    }
    if (text_[pos_] == '-' && Peek(1) == '>') {
      Emit(Token::Kind::kPunct, pos_, pos_ + 2, line_);
      pos_ += 2;
      return;
    }
    Emit(Token::Kind::kPunct, pos_, pos_ + 1, line_);
    ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
  LexedFile out_;
};

}  // namespace

bool LexedFile::HasCommentInRange(int first_line, int last_line,
                                  std::string_view needle) const {
  for (const Comment& c : comments) {
    if (c.end_line < first_line || c.line > last_line) continue;
    if (needle.empty() || c.text.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

LexedFile LexFile(std::string path, std::string_view text) {
  return Lexer(std::move(path), text).Run();
}

}  // namespace subdex_lint
