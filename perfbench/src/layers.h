// Per-layer metrics that every workload derives the same way from its
// serial replay: the engine's per-solver timings and dispatch counts, and
// the flow and search counters of the pricing core.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "common.h"
#include "daemon.h"

namespace perfbench {

/// num / den, 0 when den is 0.
double Ratio(double num, double den);

/// The metric key of a PriceQuote.solver name ("gchq-min-cut" -> "gchq").
std::string SolverKey(const std::string& solver);

/// Sets engine.price_us.*, engine.dispatch.*, flow.{maxflow,mincut}_us,
/// flow.{augmenting_paths,bfs_rounds}_per_solve, bnb.* and clause.solve_us
/// from the replay's Price span samples keyed by SolverKey, and the
/// registry delta `d` taken over exactly the replay.
void SetSolverLayerMetrics(const MetricsView& d,
                           const std::map<std::string, Samples>& price_by_solver,
                           RunResult* r);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
