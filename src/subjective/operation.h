#ifndef SUBDEX_SUBJECTIVE_OPERATION_H_
#define SUBDEX_SUBJECTIVE_OPERATION_H_

#include <string>
#include <vector>

#include "subjective/rating_group.h"
#include "subjective/subjective_db.h"
#include "util/random.h"
#include "util/status.h"

namespace subdex {

/// Kind of a next-step exploration operation (Section 3.2.1): filtering
/// drills down (adds a conjunct), generalization rolls up (removes one), a
/// change moves sideways, and a composite combines an add with a remove or
/// change (the paper allows at most 2 attribute-value edits).
enum class OperationKind {
  kFilter,
  kGeneralize,
  kChange,
  kComposite,
};

const char* OperationKindName(OperationKind kind);

/// A candidate next-step operation: the target joint selection it produces,
/// how it differs from the current one, and its provenance.
struct Operation {
  GroupSelection target;
  OperationKind kind = OperationKind::kFilter;
  size_t num_edits = 1;

  SUBDEX_NODISCARD std::string Describe(const SubjectiveDatabase& db) const;
};

/// Knobs for candidate-operation enumeration.
struct OperationEnumerationOptions {
  /// Maximum number of attribute-value edits per candidate (1 or 2).
  size_t max_edits = 2;
  /// Budget for the 2-edit composites, not a cap on the output: every
  /// single edit is always emitted, and composites fill only what is left
  /// of this budget after them (sampled uniformly, seeded, when the
  /// composite space is larger). The output can therefore exceed it: the
  /// MovieLens root yields 160 candidates at 80. The real cap on the
  /// recommendation fan-out (the candidate operations evaluated per step)
  /// is EngineConfig::max_operation_evaluations.
  size_t max_candidates = 400;
  /// Seed for composite sampling.
  uint64_t seed = 17;
};

/// Enumerates candidate next-step operations from `current`, following the
/// paper's "small adjustment" rule: each candidate adds one attribute-value
/// pair, removes one, changes one, or adds one while removing/changing one.
/// Only (multi-)categorical attributes participate. Candidates identical to
/// `current` are skipped. Emptiness/utility of the resulting groups is the
/// recommendation builder's concern, not the enumerator's.
std::vector<Operation> EnumerateCandidateOperations(
    const SubjectiveDatabase& db, const GroupSelection& current,
    const OperationEnumerationOptions& options);

}  // namespace subdex

#endif  // SUBDEX_SUBJECTIVE_OPERATION_H_
