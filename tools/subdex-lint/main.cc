// subdex-lint — the project-specific static analyzer (DESIGN.md §15).
//
// The one implementation of the project's source rules: C1–C4 lock
// discipline, L1 subsystem layering over the real include graph against
// the DAG declared in ci/layers.txt, L2 deadline/cancellation propagation
// in src/engine/ + src/server/, L3 wire-input funneling through the
// bounds-checked json_wire accessors, and L4 discard-justification and
// metric-name rules. A comment/string-aware token analysis with no
// dependency beyond the C++ standard library; the `lint_tree` ctest runs
// it over src/.
//
// Usage:
//   subdex-lint [--root DIR] [--layers FILE] [--rules R1,R2,...]
//               [--list-rules] [--validate-layers FILE]
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tools/subdex-lint/checks.h"
#include "tools/subdex-lint/diagnostics.h"
#include "tools/subdex-lint/layers.h"
#include "tools/subdex-lint/lexer.h"

namespace subdex_lint {
namespace {

namespace fs = std::filesystem;

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

int ValidateLayersFile(const std::string& path) {
  const auto text = ReadFile(path);
  if (!text) {
    std::cerr << "subdex-lint: cannot read layers file: " << path << "\n";
    return 2;
  }
  LayerGraph graph;
  std::string error;
  if (!ParseLayersFile(*text, &graph, &error)) {
    std::cerr << "subdex-lint: " << error << "\n";
    return 1;
  }
  if (!ValidateDeclaredDeps(graph, &error)) {
    std::cerr << "subdex-lint: " << error << "\n";
    return 1;
  }
  const std::vector<std::string> cycle = FindCycle(graph);
  if (!cycle.empty()) {
    std::cerr << "subdex-lint: dependency cycle: ";
    for (size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) std::cerr << " -> ";
      std::cerr << cycle[i];
    }
    std::cerr << "\n";
    return 1;
  }
  std::cout << "subdex-lint: layers OK (" << graph.subsystems.size()
            << " subsystems, acyclic)\n";
  return 0;
}

void ListRules() {
  for (const RuleInfo& r : RuleCatalog()) {
    std::cout << r.id << "  " << r.summary << "\n      why: " << r.rationale
              << "\n";
  }
}

struct Options {
  std::string root = ".";
  std::string layers_path;  // default: <root>/ci/layers.txt
  std::set<std::string> rules;
};

int Run(const Options& opts) {
  const fs::path root(opts.root);
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    std::cerr << "subdex-lint: no src/ directory under root: " << opts.root
              << "\n";
    return 2;
  }

  ProjectContext ctx;
  for (const auto& entry : fs::directory_iterator(src)) {
    if (entry.is_directory()) {
      ctx.src_subsystems.insert(entry.path().filename().string());
    }
  }

  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file() || !HasSourceExtension(entry.path())) {
      continue;
    }
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  for (const fs::path& p : paths) {
    const std::string rel = fs::relative(p, root).generic_string();
    const auto text = ReadFile(p);
    if (!text) {
      std::cerr << "subdex-lint: cannot read " << rel << "\n";
      return 2;
    }
    ctx.files.push_back(LexFile(rel, *text));
  }

  std::string layers_path = opts.layers_path;
  if (layers_path.empty()) {
    layers_path = (root / "ci" / "layers.txt").string();
  }
  LayerGraph graph;
  bool have_layers = false;
  if (const auto text = ReadFile(layers_path)) {
    std::string error;
    if (!ParseLayersFile(*text, &graph, &error)) {
      std::cerr << "subdex-lint: " << error << "\n";
      return 2;
    }
    have_layers = true;
  }
  ctx.layers = have_layers ? &graph : nullptr;
  ctx.enabled_rules = opts.rules;

  const std::vector<Diagnostic> diags = RunChecks(ctx);
  for (const Diagnostic& d : diags) {
    std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
              << d.message << "\n";
    if (const RuleInfo* rule = FindRule(d.rule)) {
      std::cout << "    rule " << rule->id << ": " << rule->rationale << "\n";
    }
  }
  if (!diags.empty()) {
    std::cout << "subdex-lint: FAILED — " << diags.size() << " finding(s) in "
              << ctx.files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "subdex-lint: OK (" << ctx.files.size() << " files, "
            << (opts.rules.empty() ? std::string("all rules")
                                   : std::to_string(opts.rules.size()) +
                                         " rule(s)")
            << ")\n";
  return 0;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (arg == flag && i + 1 < argc) return std::string(argv[++i]);
      return std::nullopt;
    };
    if (arg == "--list-rules") {
      ListRules();
      return 0;
    }
    if (auto v = value("--validate-layers")) return ValidateLayersFile(*v);
    if (auto v = value("--root")) {
      opts.root = *v;
      continue;
    }
    if (auto v = value("--layers")) {
      opts.layers_path = *v;
      continue;
    }
    if (auto v = value("--rules")) {
      std::stringstream ss(*v);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        if (rule.empty()) continue;
        if (FindRule(rule) == nullptr) {
          std::cerr << "subdex-lint: unknown rule '" << rule
                    << "' (--list-rules shows the catalog)\n";
          return 2;
        }
        opts.rules.insert(rule);
      }
      continue;
    }
    std::cerr << "subdex-lint: unknown argument '" << arg << "'\n"
              << "usage: subdex-lint [--root DIR] [--layers FILE] "
                 "[--rules R1,R2] [--list-rules] [--validate-layers FILE]\n";
    return 2;
  }
  return Run(opts);
}

}  // namespace
}  // namespace subdex_lint

int main(int argc, char** argv) { return subdex_lint::Main(argc, argv); }
