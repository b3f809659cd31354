#include "layers.h"

namespace perfbench {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string SolverKey(const std::string& solver) {
  if (solver == "gchq-min-cut") return "gchq";
  if (solver == "clause-solver") return "clause";
  if (solver == "clause-solver(ground)") return "clause_ground";
  if (solver == "exhaustive-search") return "exhaustive";
  if (solver == "boolean-witness-cover") return "boolean_witness";
  if (solver == "component-composition") return "composition";
  return "other";
}

void SetSolverLayerMetrics(const MetricsView& d,
                           const std::map<std::string, Samples>& price_by_solver,
                           RunResult* r) {
  for (const char* k : {"gchq", "clause", "clause_ground", "exhaustive",
                        "boolean_witness", "composition"}) {
    auto it = price_by_solver.find(k);
    r->Set(std::string("engine.price_us.") + k,
           it == price_by_solver.end() ? 0 : it->second.Mean(), "us");
  }
  for (const char* k : {"gchq", "clause", "clause_ground", "exhaustive",
                        "boolean_witness", "component_composition"}) {
    r->Set(std::string("engine.dispatch.") + k,
           static_cast<double>(d.Counter(std::string("qp.engine.dispatch.") + k)),
           "count");
  }
  auto count = [&d](const char* name) {
    return static_cast<double>(d.Counter(name));
  };
  const double maxflows = count("qp.flow.maxflow_runs");
  r->Set("flow.maxflow_us", d.HistMean("qp.flow.maxflow_ns", 1e-3), "us");
  r->Set("flow.mincut_us", d.HistMean("qp.flow.mincut_ns", 1e-3), "us");
  r->Set("flow.augmenting_paths_per_solve",
         Ratio(count("qp.flow.augmenting_paths"), maxflows), "count");
  r->Set("flow.bfs_rounds_per_solve",
         Ratio(count("qp.flow.bfs_rounds"), maxflows), "count");
  const double bnb_solves = count("qp.solver.exhaustive.solves");
  const double nodes = count("qp.solver.exhaustive.bnb_nodes");
  const double memo = count("qp.solver.exhaustive.memo_hits");
  const double evals = count("qp.solver.exhaustive.oracle_evals");
  r->Set("bnb.solve_us", d.HistMean("qp.solver.exhaustive_ns", 1e-3), "us");
  r->Set("clause.solve_us", d.HistMean("qp.solver.clause_ns", 1e-3), "us");
  r->Set("bnb.nodes_per_solve", Ratio(nodes, bnb_solves), "count");
  r->Set("bnb.pruned_ratio",
         Ratio(count("qp.solver.exhaustive.bound_pruned"), nodes), "ratio");
  r->Set("bnb.memo_hit_ratio", Ratio(memo, memo + evals), "ratio");
  r->Set("bnb.oracle_evals_per_solve", Ratio(evals, bnb_solves), "count");
}

}  // namespace perfbench
