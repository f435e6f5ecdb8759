// Dense reference oracle for Algorithm 1 (scheduler/assignment.h): the
// original O(n·m)-per-grant scan over a dense [node][executor] matrix. It
// is not part of the library; the equivalence tests and the benches that
// report the sparse solver's speed-up link it to check that
// SolveAssignmentOnce makes bit-identical decisions.
#pragma once

#include "scheduler/assignment.h"

namespace elasticutor {

/// One run of Algorithm 1 at a fixed φ, by dense scan.
AssignmentOutput SolveAssignmentOnceDense(const AssignmentInput& in,
                                          double phi);

/// φ-doubling loop over the dense solver (SolveAssignment's counterpart).
AssignmentOutput SolveAssignmentDense(const AssignmentInput& in);

}  // namespace elasticutor
