// The benchmark workloads. Each fills `result` with its metrics
// (end-to-end names when untraced, per-layer names when traced), its
// per-operation accounting and its correctness verdict.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunServeChurn(const Options& options, RunResult* result);
void RunSolveMix(const Options& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
