#ifndef SUBDEX_TOOLS_SUBDEX_LINT_CHECKS_H_
#define SUBDEX_TOOLS_SUBDEX_LINT_CHECKS_H_

#include <set>
#include <string>
#include <vector>

#include "tools/subdex-lint/diagnostics.h"
#include "tools/subdex-lint/layers.h"
#include "tools/subdex-lint/lexer.h"

namespace subdex_lint {

// Everything the checks need about the project.
struct ProjectContext {
  // Files to analyze; LexedFile::path is project-relative
  // ("src/util/mutex.h"). Sorted by path.
  std::vector<LexedFile> files;
  // Declared subsystem DAG; when absent L1 only reports that it is
  // missing. Owned by the caller.
  const LayerGraph* layers = nullptr;
  // Subsystem directories that exist under src/ on disk (DAG coverage is
  // checked against this set, so layers.txt cannot silently rot).
  std::set<std::string> src_subsystems;
  // Rule ids to run; empty means all.
  std::set<std::string> enabled_rules;
};

// Runs every enabled check; returns diagnostics sorted by (file, line).
std::vector<Diagnostic> RunChecks(const ProjectContext& ctx);

}  // namespace subdex_lint

#endif  // SUBDEX_TOOLS_SUBDEX_LINT_CHECKS_H_
