#ifndef SUBDEX_TOOLS_SUBDEX_LINT_LEXER_H_
#define SUBDEX_TOOLS_SUBDEX_LINT_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

namespace subdex_lint {

// A minimal C++ token stream built for lint rules, not compilation: it
// separates code from comments, string/char literals (including raw
// strings), and preprocessor directives, and it records the 1-based line
// of every token. This is what makes the rules more accurate than a grep
// over lines: a `std::mutex` inside a string or a block comment never
// reaches the token stream, and a declaration reformatted across lines
// still arrives as the same token sequence.
struct Token {
  enum class Kind {
    kIdent,    // identifiers and keywords
    kNumber,   // pp-number (loosely lexed; value is never needed)
    kString,   // "...", R"(...)" — text is the raw spelling
    kChar,     // '...'
    kPunct,    // punctuation; "::" and "->" are single tokens
  };
  Kind kind;
  std::string text;
  int line;
};

// A comment, with the lines it spans. `text` excludes the delimiters.
struct Comment {
  int line;      // first line
  int end_line;  // last line (== line for `//` comments)
  std::string text;
};

// A `#include` directive.
struct IncludeDirective {
  int line;
  std::string path;  // between the quotes / angle brackets
  bool angled;       // <...> vs "..."
};

struct LexedFile {
  std::string path;  // as handed to LexFile (project-relative by contract)
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;

  // True when any comment covering a line in [first_line, last_line]
  // contains `needle` (empty needle: any comment at all). Lint rules use
  // this for the "justification on the line or within N lines above"
  // convention.
  bool HasCommentInRange(int first_line, int last_line,
                         std::string_view needle = {}) const;
};

// Lexes `text`. Never fails: unterminated constructs are consumed to EOF,
// matching what a lint pass wants (flag what is visible, crash on
// nothing). Preprocessor directive lines are consumed whole (with `\`
// continuations) and do not produce tokens, except that a `#define`'s
// replacement list is lexed as code in place (the macro name and
// parameter list are dropped); `#include` paths are captured into
// `includes`.
LexedFile LexFile(std::string path, std::string_view text);

}  // namespace subdex_lint

#endif  // SUBDEX_TOOLS_SUBDEX_LINT_LEXER_H_
