#include "tools/subdex-lint/checks.h"

#include <algorithm>
#include <map>

namespace subdex_lint {

namespace {

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}
bool IsAnyIdent(const Token& t, const std::set<std::string>& names) {
  return t.kind == Token::Kind::kIdent && names.count(t.text) > 0;
}

// "src/<sub>/..." -> "<sub>"; empty when the path has another shape.
std::string Subsystem(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return {};
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return {};
  return path.substr(4, slash - 4);
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Finds the token index of the ')' / '}' matching the opener at `open`.
// Returns tokens.size() when unbalanced (the rest of the file is then
// treated as unmatched, which at worst suppresses a finding in a file
// that does not compile anyway).
size_t FindMatch(const Tokens& toks, size_t open) {
  const std::string& open_text = toks[open].text;
  const std::string close_text = open_text == "(" ? ")" : "}";
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open_text)) ++depth;
    if (IsPunct(toks[i], close_text) && --depth == 0) return i;
  }
  return toks.size();
}

// An annotation comment `<tag>(<reason>)` with a non-empty reason, on
// `line` or within `lines_above` lines above it. The required reason is
// the policy: a suppression must say *why*, the same contract as the
// analyzer suppression file.
bool HasJustifiedAnnotation(const LexedFile& file, int line, int lines_above,
                            std::string_view tag) {
  const int first = line > lines_above ? line - lines_above : 1;
  for (const Comment& c : file.comments) {
    if (c.end_line < first || c.line > line) continue;
    const size_t at = c.text.find(tag);
    if (at == std::string::npos) continue;
    const size_t open = c.text.find('(', at + tag.size());
    if (open == std::string::npos) continue;
    const size_t close = c.text.find(')', open);
    if (close == std::string::npos) continue;
    const std::string reason = c.text.substr(open + 1, close - open - 1);
    if (reason.find_first_not_of(" \t") != std::string::npos) return true;
  }
  return false;
}

void Add(std::vector<Diagnostic>* diags, const std::string& file, int line,
         const char* rule, std::string message) {
  diags->push_back({file, line, rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// L1: subsystem layering over the real include graph.

void CheckLayering(const ProjectContext& ctx, std::vector<Diagnostic>* diags) {
  if (ctx.layers == nullptr) {
    Add(diags, "ci/layers.txt", 1, "L1",
        "no layers file: the subsystem DAG must be declared");
    return;
  }
  const LayerGraph& graph = *ctx.layers;

  std::string error;
  if (!ValidateDeclaredDeps(graph, &error)) {
    Add(diags, "ci/layers.txt", 1, "L1", error);
  }
  const std::vector<std::string> cycle = FindCycle(graph);
  if (!cycle.empty()) {
    std::string msg = "dependency cycle in the declared DAG: ";
    for (size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) msg += " -> ";
      msg += cycle[i];
    }
    Add(diags, "ci/layers.txt", 1, "L1", msg);
  }
  // Coverage, both directions: every src/ directory is declared, and
  // every declared subsystem still exists on disk.
  for (const std::string& sub : ctx.src_subsystems) {
    if (!graph.Declared(sub)) {
      Add(diags, "ci/layers.txt", 1, "L1",
          "subsystem 'src/" + sub + "/' is not declared in ci/layers.txt");
    }
  }
  for (const std::string& sub : graph.subsystems) {
    if (ctx.src_subsystems.count(sub) == 0) {
      Add(diags, "ci/layers.txt", 1, "L1",
          "declared subsystem '" + sub + "' has no src/" + sub +
              "/ directory (stale entry)");
    }
  }

  for (const LexedFile& file : ctx.files) {
    const std::string sub = Subsystem(file.path);
    if (sub.empty()) continue;
    for (const IncludeDirective& inc : file.includes) {
      if (inc.angled) continue;
      const size_t slash = inc.path.find('/');
      if (slash == std::string::npos) continue;
      const std::string dep = inc.path.substr(0, slash);
      // Only subsystem-shaped includes participate (a path whose first
      // component is a declared subsystem or an on-disk src/ directory).
      if (!graph.Declared(dep) && ctx.src_subsystems.count(dep) == 0) {
        continue;
      }
      if (dep == sub) continue;
      if (graph.EdgeAllowed(sub, dep)) continue;
      Add(diags, file.path, inc.line, "L1",
          "include of \"" + inc.path + "\": subsystem '" + sub +
              "' may not depend on '" + dep +
              "' (edge not declared in ci/layers.txt)");
    }
  }
}

// ---------------------------------------------------------------------------
// Function extraction (shared by L2).

// A function definition recovered from the token stream: name, header
// line, parameter token range, body token range. Nested definitions
// (lambdas, local structs) are folded into the outermost enclosing
// function — L2 reasons about what a *call into this function* can do.
// Token-level, so a recovery heuristic, not a parser — but on this
// codebase's style (clang-format, one definition per brace pair) it
// recovers every function the checks care about; the L2 fixtures pin
// that.
struct FunctionDef {
  std::string name;  // last identifier before '(' (method name for A::B)
  int header_line = 0;
  size_t params_begin = 0;  // token index of '('
  size_t params_end = 0;    // token index of matching ')'
  size_t body_begin = 0;    // token index of '{'
  size_t body_end = 0;      // token index of matching '}'
};

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kWords = {
      "if",     "while",  "for",    "switch",   "catch",
      "return", "sizeof", "alignof", "decltype", "static_assert",
      "new",    "delete", "throw",  "else",     "do",
      "case",   "goto",   "co_return", "co_await", "co_yield"};
  return kWords;
}

std::vector<FunctionDef> ExtractFunctions(const Tokens& toks) {
  std::vector<FunctionDef> funcs;
  size_t i = 0;
  while (i < toks.size()) {
    if (!IsPunct(toks[i], "(") || i == 0 ||
        toks[i - 1].kind != Token::Kind::kIdent ||
        ControlKeywords().count(toks[i - 1].text) > 0) {
      ++i;
      continue;
    }
    const size_t params_begin = i;
    const size_t params_end = FindMatch(toks, params_begin);
    if (params_end >= toks.size()) {
      ++i;
      continue;
    }
    // Walk the post-parameter region: qualifiers, a trailing return type,
    // or a constructor initializer list, ending at the body '{'. Anything
    // else (';', ',', '=', ')', ...) means this was not a definition.
    size_t k = params_end + 1;
    bool is_def = false;
    while (k < toks.size()) {
      const Token& t = toks[k];
      if (IsPunct(t, "{")) {
        is_def = true;
        break;
      }
      if (IsIdent(t, "noexcept") && k + 1 < toks.size() &&
          IsPunct(toks[k + 1], "(")) {
        k = FindMatch(toks, k + 1) + 1;
        continue;
      }
      if (IsIdent(t, "const") || IsIdent(t, "noexcept") ||
          IsIdent(t, "override") || IsIdent(t, "final") ||
          IsIdent(t, "mutable") || IsIdent(t, "try") ||
          IsPunct(t, "&")) {
        ++k;
        continue;
      }
      if (IsPunct(t, "->")) {
        // Trailing return type: consume idents / '::' / template args /
        // '*' / '&' until the body brace or a disqualifier.
        ++k;
        int angle = 0;
        while (k < toks.size()) {
          const Token& r = toks[k];
          if (IsPunct(r, "<")) ++angle;
          if (IsPunct(r, ">")) --angle;
          if (angle == 0 && (IsPunct(r, "{") || IsPunct(r, ";"))) break;
          if (angle == 0 && (IsPunct(r, ",") || IsPunct(r, ")") ||
                             IsPunct(r, "="))) {
            break;
          }
          ++k;
        }
        continue;
      }
      if (IsPunct(t, ":")) {
        // Constructor initializer list: `ident (...)` or `ident {...}`
        // entries separated by commas, then the body brace.
        ++k;
        bool bad = false;
        while (k < toks.size() && !IsPunct(toks[k], "{")) {
          // Entry name (possibly qualified / templated).
          while (k < toks.size() &&
                 (toks[k].kind == Token::Kind::kIdent ||
                  IsPunct(toks[k], "::") || IsPunct(toks[k], "<") ||
                  IsPunct(toks[k], ">"))) {
            ++k;
          }
          if (k >= toks.size() ||
              !(IsPunct(toks[k], "(") || IsPunct(toks[k], "{"))) {
            bad = true;
            break;
          }
          k = FindMatch(toks, k) + 1;
          if (k < toks.size() && IsPunct(toks[k], ",")) ++k;
        }
        if (bad) break;
        continue;
      }
      break;  // disqualifier
    }
    if (!is_def || k >= toks.size()) {
      i = params_end + 1;
      continue;
    }
    const size_t body_begin = k;
    const size_t body_end = FindMatch(toks, body_begin);
    FunctionDef def;
    def.name = toks[params_begin - 1].text;
    def.header_line = toks[params_begin - 1].line;
    def.params_begin = params_begin;
    def.params_end = params_end;
    def.body_begin = body_begin;
    def.body_end = body_end;
    funcs.push_back(std::move(def));
    // Skip the body wholesale: nested lambdas and local types fold into
    // this definition.
    i = body_end + 1;
  }
  return funcs;
}

// ---------------------------------------------------------------------------
// L2: deadline/cancellation propagation in src/engine/ and src/server/.

const std::set<std::string>& BlockingSyscalls() {
  static const std::set<std::string> kCalls = {
      "read",  "write",   "poll",    "ppoll",   "select",  "pselect",
      "accept", "accept4", "connect", "recv",    "recvfrom", "recvmsg",
      "send",  "sendto",  "sendmsg", "fsync",   "fdatasync"};
  return kCalls;
}

const std::set<std::string>& BudgetTypes() {
  static const std::set<std::string> kTypes = {
      "Deadline", "StopToken", "CancellationToken", "StepOptions"};
  return kTypes;
}

// A `::name(` call with no identifier before the '::' — i.e. the global
// namespace, which is how this codebase spells raw syscalls.
bool IsGlobalSyscall(const Tokens& toks, size_t i) {
  if (toks[i].kind != Token::Kind::kIdent) return false;
  if (BlockingSyscalls().count(toks[i].text) == 0) return false;
  if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) return false;
  if (i == 0 || !IsPunct(toks[i - 1], "::")) return false;
  if (i >= 2 && (toks[i - 2].kind == Token::Kind::kIdent ||
                 IsPunct(toks[i - 2], ">"))) {
    return false;  // qualified name, not the global namespace
  }
  return true;
}

// Does the token index `i` start a blocking-primitive call?
// ParallelFor / WaitOnce (the unbounded wait; WaitOnceFor carries its own
// timeout) / this_thread sleeps / global blocking syscalls.
bool IsBlockingPrimitive(const Tokens& toks, size_t i, std::string* what) {
  const Token& t = toks[i];
  if (t.kind != Token::Kind::kIdent) return false;
  if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) return false;
  if (t.text == "ParallelFor" || t.text == "WaitOnce" ||
      t.text == "sleep_for" || t.text == "sleep_until") {
    *what = t.text;
    return true;
  }
  if (IsGlobalSyscall(toks, i)) {
    *what = "::" + t.text;
    return true;
  }
  return false;
}

bool RangeMentionsBudget(const Tokens& toks, size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    if (IsAnyIdent(toks[i], BudgetTypes())) return true;
    // Polling an existing budget (member or captured) is budget evidence
    // too: the function can observe expiry even if the type name never
    // appears in its body.
    if ((toks[i].text == "ShouldStop" || toks[i].text == "expired" ||
         toks[i].text == "remaining_ms") &&
        toks[i].kind == Token::Kind::kIdent && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      return true;
    }
  }
  return false;
}

void CheckDeadlinePropagation(const ProjectContext& ctx,
                              std::vector<Diagnostic>* diags) {
  struct FnInfo {
    const LexedFile* file;
    FunctionDef def;
    bool budget_params = false;
    bool budget_anywhere = false;
    bool directly_blocks = false;
  };
  std::vector<FnInfo> fns;
  std::map<std::string, int> name_count;

  for (const LexedFile& file : ctx.files) {
    if (!StartsWith(file.path, "src/engine/") &&
        !StartsWith(file.path, "src/server/")) {
      continue;
    }
    for (FunctionDef& def : ExtractFunctions(file.tokens)) {
      FnInfo info;
      info.file = &file;
      info.budget_params =
          RangeMentionsBudget(file.tokens, def.params_begin, def.params_end);
      info.budget_anywhere =
          info.budget_params ||
          RangeMentionsBudget(file.tokens, def.body_begin, def.body_end);
      std::string what;
      for (size_t i = def.body_begin; i < def.body_end; ++i) {
        if (IsBlockingPrimitive(file.tokens, i, &what)) {
          info.directly_blocks = true;
          break;
        }
      }
      info.def = std::move(def);
      name_count[info.def.name]++;
      fns.push_back(std::move(info));
    }
  }

  // Functions that block and demand a budget from their caller: the
  // one-hop "transitive" tier of the rule.
  std::map<std::string, const FnInfo*> budgeted_blockers;
  for (const FnInfo& fn : fns) {
    if (fn.budget_params && fn.directly_blocks &&
        name_count[fn.def.name] == 1) {
      budgeted_blockers[fn.def.name] = &fn;
    }
  }

  for (const FnInfo& fn : fns) {
    if (fn.budget_anywhere) continue;
    const LexedFile& file = *fn.file;
    const bool fn_annotated = HasJustifiedAnnotation(
        file, fn.def.header_line, 3, "lint: unbounded");
    if (fn_annotated) continue;
    const Tokens& toks = file.tokens;
    for (size_t i = fn.def.body_begin; i < fn.def.body_end; ++i) {
      std::string what;
      if (IsBlockingPrimitive(toks, i, &what)) {
        if (HasJustifiedAnnotation(file, toks[i].line, 3, "lint: unbounded")) {
          continue;
        }
        Add(diags, file.path, toks[i].line, "L2",
            "'" + fn.def.name + "' calls " + what +
                " but accepts no Deadline/StopToken and polls no budget "
                "(annotate 'lint: unbounded(<why>)' if this is by design)");
        continue;
      }
      // One hop: calling a function that blocks under a caller-supplied
      // budget, without having a budget to hand it.
      const Token& t = toks[i];
      if (t.kind == Token::Kind::kIdent && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(") && t.text != fn.def.name) {
        auto it = budgeted_blockers.find(t.text);
        if (it != budgeted_blockers.end()) {
          if (HasJustifiedAnnotation(file, t.line, 3, "lint: unbounded")) {
            continue;
          }
          Add(diags, file.path, t.line, "L2",
              "'" + fn.def.name + "' calls '" + t.text +
                  "' (which blocks under a caller-supplied budget) without "
                  "accepting or constructing a Deadline/StopToken to "
                  "forward");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L3: untrusted wire numbers flow through the json_wire funnel.

bool WireFunnelFile(const std::string& path) {
  return path == "src/server/json.h" || path == "src/server/json.cc" ||
         path == "src/server/json_wire.h" || path == "src/server/json_wire.cc";
}

void CheckWireInput(const ProjectContext& ctx,
                    std::vector<Diagnostic>* diags) {
  for (const LexedFile& file : ctx.files) {
    if (!StartsWith(file.path, "src/server/") &&
        !StartsWith(file.path, "src/loadgen/")) {
      continue;
    }
    if (WireFunnelFile(file.path)) continue;
    const Tokens& toks = file.tokens;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!(IsPunct(toks[i], ".") || IsPunct(toks[i], "->"))) continue;
      if (!IsIdent(toks[i + 1], "number")) continue;
      if (!IsPunct(toks[i + 2], "(") || !IsPunct(toks[i + 3], ")")) continue;
      if (HasJustifiedAnnotation(file, toks[i + 1].line, 3,
                                 "lint: wire-checked")) {
        continue;
      }
      Add(diags, file.path, toks[i + 1].line, "L3",
          "raw JsonValue::number() outside src/server/json_wire: use "
          "WireCount/WireIndex/WireMs/WireNumber, or justify a locally "
          "validated read with 'lint: wire-checked(<why>)'");
    }
  }
}

// ---------------------------------------------------------------------------
// L4: justified discards + literal, well-formed metric names.

// `literal` is the raw token spelling, quotes included, and must read
// subdex_<subsystem>_<name> (lowercase words joined by '_').
bool MetricNameOk(const std::string& literal) {
  if (literal.size() < 2 || literal.front() != '"' || literal.back() != '"') {
    return false;
  }
  const std::string name = literal.substr(1, literal.size() - 2);
  if (name.rfind("subdex_", 0) != 0) return false;
  size_t words = 0;
  size_t pos = 7;  // past "subdex_"
  while (pos <= name.size()) {
    const size_t next = name.find('_', pos);
    const std::string word =
        name.substr(pos, next == std::string::npos ? name.size() - pos
                                                   : next - pos);
    if (word.empty()) return false;
    for (char c : word) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) return false;
    }
    ++words;
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return words >= 2;  // subsystem + at least one more word
}

// Is the `(` at `i` the start of a `(void)` cast, i.e. a discard? It is
// one wherever it sits — a statement, an `if` branch, a comma operand —
// unless it is an empty parameter list: `f(void)` and `int(void)` follow
// a name, and `[](void) {` is followed by no operand.
bool IsVoidCast(const Tokens& toks, size_t i) {
  if (!(IsPunct(toks[i], "(") && i + 3 < toks.size() &&
        IsIdent(toks[i + 1], "void") && IsPunct(toks[i + 2], ")"))) {
    return false;
  }
  if (i > 0 && toks[i - 1].kind == Token::Kind::kIdent &&
      ControlKeywords().count(toks[i - 1].text) == 0) {
    return false;
  }
  static const std::set<std::string> kOperandStarts = {
      "(", "::", "*", "&", "!", "~", "-", "+", "["};
  const Token& next = toks[i + 3];
  return next.kind != Token::Kind::kPunct ||
         kOperandStarts.count(next.text) > 0;
}

void CheckDiscardsAndMetrics(const ProjectContext& ctx,
                             std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kGetters = {"GetCounter", "GetGauge",
                                                 "GetHistogram"};
  for (const LexedFile& file : ctx.files) {
    const Tokens& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (IsVoidCast(toks, i) &&
          !file.HasCommentInRange(toks[i].line - 3, toks[i].line)) {
        Add(diags, file.path, toks[i].line, "L4",
            "unjustified (void) discard: add a comment saying why the "
            "value is safe to drop");
      }
      // Metric registration names.
      if (IsAnyIdent(toks[i], kGetters) && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")) {
        if (i + 2 < toks.size() &&
            toks[i + 2].kind == Token::Kind::kString) {
          if (!MetricNameOk(toks[i + 2].text)) {
            Add(diags, file.path, toks[i + 2].line, "L4",
                "metric name " + toks[i + 2].text +
                    " must match subdex_<subsystem>_<name> "
                    "(lowercase words joined by '_')");
          }
        } else if (i > 0 &&
                   (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
                   // The registry's own plumbing passes names through.
                   !StartsWith(file.path, "src/util/metrics.")) {
          Add(diags, file.path, toks[i].line, "L4",
              "metric registered with a non-literal name: the name must be "
              "a string literal so its shape is checkable");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C1: raw std synchronization primitives / raw cv waits.

void CheckRawSync(const ProjectContext& ctx, std::vector<Diagnostic>* diags) {
  // Bare std::condition_variable is deliberately absent: MutexLock::WaitOnce
  // bridges to it, so cv members next to a subdex::Mutex are the sanctioned
  // pattern (util/mutex.h) — only raw .wait*() calls on one are banned.
  static const std::set<std::string> kPrimitives = {
      "mutex",        "timed_mutex",        "recursive_mutex",
      "shared_mutex", "shared_timed_mutex", "lock_guard",
      "unique_lock",  "scoped_lock",        "condition_variable_any"};
  static const std::set<std::string> kWaits = {"wait", "wait_for",
                                               "wait_until"};
  for (const LexedFile& file : ctx.files) {
    if (file.path == "src/util/mutex.h") continue;
    const Tokens& toks = file.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (IsIdent(toks[i], "std") && i + 2 < toks.size() &&
          IsPunct(toks[i + 1], "::") && IsAnyIdent(toks[i + 2], kPrimitives)) {
        Add(diags, file.path, toks[i].line, "C1",
            "raw std::" + toks[i + 2].text +
                " (use subdex::Mutex / MutexLock from util/mutex.h)");
      }
      if ((IsPunct(toks[i], ".") || IsPunct(toks[i], "->")) &&
          i + 2 < toks.size() && IsAnyIdent(toks[i + 1], kWaits) &&
          IsPunct(toks[i + 2], "(")) {
        Add(diags, file.path, toks[i + 1].line, "C1",
            "raw ." + toks[i + 1].text +
                "() wait (use MutexLock::WaitOnce / WaitOnceFor)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C2: every Mutex member carries a literal name.

void CheckNamedMutexes(const ProjectContext& ctx,
                       std::vector<Diagnostic>* diags) {
  for (const LexedFile& file : ctx.files) {
    const Tokens& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "Mutex")) continue;
      if (toks[i + 1].kind != Token::Kind::kIdent) continue;
      if (i + 2 >= toks.size()) continue;
      const Token& after = toks[i + 2];
      bool bad = false;
      if (IsPunct(after, ";") || IsPunct(after, "=")) {
        bad = true;  // default-constructed or copy-initialized: unnamed
      } else if (IsPunct(after, "{") || IsPunct(after, "(")) {
        // The name belongs on the declaration line, where a reader
        // scanning for the lock (or grepping its name) sees both.
        bad = !(i + 3 < toks.size() &&
                toks[i + 3].kind == Token::Kind::kString &&
                toks[i + 3].line == toks[i + 1].line);
      } else {
        continue;  // reference/pointer/declaration shapes
      }
      if (bad) {
        Add(diags, file.path, toks[i].line, "C2",
            "Mutex '" + toks[i + 1].text +
                "' constructed without a literal name on its declaration "
                "line (declare as: Mutex mu_{\"subsystem.lock\", "
                "lock_rank::k...};)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C3: no blocking syscall inside a MutexLock scope in src/server/.

void CheckBlockingUnderLock(const ProjectContext& ctx,
                            std::vector<Diagnostic>* diags) {
  for (const LexedFile& file : ctx.files) {
    if (!StartsWith(file.path, "src/server/")) continue;
    if (file.path.size() < 3 ||
        file.path.compare(file.path.size() - 3, 3, ".cc") != 0) {
      continue;
    }
    const Tokens& toks = file.tokens;
    int depth = 0;
    std::vector<int> lock_depths;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (IsPunct(t, "{")) {
        ++depth;
        continue;
      }
      if (IsPunct(t, "}")) {
        --depth;
        while (!lock_depths.empty() && lock_depths.back() > depth) {
          lock_depths.pop_back();
        }
        continue;
      }
      if (IsIdent(t, "MutexLock") && i + 2 < toks.size() &&
          toks[i + 1].kind == Token::Kind::kIdent &&
          (IsPunct(toks[i + 2], "(") || IsPunct(toks[i + 2], "{"))) {
        lock_depths.push_back(depth);
        continue;
      }
      if (!lock_depths.empty() && IsGlobalSyscall(toks, i)) {
        if (!file.HasCommentInRange(t.line - 3, t.line,
                                    "lock-lint: nonblocking")) {
          Add(diags, file.path, t.line, "C3",
              "::" + t.text +
                  "() inside a MutexLock scope (a stalled peer would hold "
                  "the lock; mark a genuinely non-blocking use with "
                  "'lock-lint: nonblocking')");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// C4: cv waits loop on their predicate.

void CheckLoopedWaits(const ProjectContext& ctx,
                      std::vector<Diagnostic>* diags) {
  for (const LexedFile& file : ctx.files) {
    if (file.path == "src/util/mutex.h") continue;
    const Tokens& toks = file.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!(IsPunct(toks[i], ".") || IsPunct(toks[i], "->"))) continue;
      const Token& callee = toks[i + 1];
      if (!(IsIdent(callee, "WaitOnce") || IsIdent(callee, "WaitOnceFor"))) {
        continue;
      }
      if (!IsPunct(toks[i + 2], "(")) continue;
      const int line = callee.line;
      bool looped = false;
      for (size_t j = i; j-- > 0;) {
        if (toks[j].line < line - 6) break;
        if (IsIdent(toks[j], "while") || IsIdent(toks[j], "for")) {
          looped = true;
          break;
        }
      }
      if (!looped &&
          file.HasCommentInRange(line - 6, line, "lock-lint: looped")) {
        looped = true;
      }
      if (!looped) {
        Add(diags, file.path, line, "C4",
            "." + callee.text +
                "() outside a predicate loop (spurious wakeups make an "
                "unlooped wait a race; wrap in while (...)/for (;;), or "
                "mark a structured loop with 'lock-lint: looped')");
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> RunChecks(const ProjectContext& ctx) {
  auto enabled = [&ctx](const char* rule) {
    return ctx.enabled_rules.empty() || ctx.enabled_rules.count(rule) > 0;
  };
  std::vector<Diagnostic> diags;
  if (enabled("C1")) CheckRawSync(ctx, &diags);
  if (enabled("C2")) CheckNamedMutexes(ctx, &diags);
  if (enabled("C3")) CheckBlockingUnderLock(ctx, &diags);
  if (enabled("C4")) CheckLoopedWaits(ctx, &diags);
  if (enabled("L1")) CheckLayering(ctx, &diags);
  if (enabled("L2")) CheckDeadlinePropagation(ctx, &diags);
  if (enabled("L3")) CheckWireInput(ctx, &diags);
  if (enabled("L4")) CheckDiscardsAndMetrics(ctx, &diags);
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diags;
}

}  // namespace subdex_lint
