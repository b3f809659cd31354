// solve_mix: in-process pricing, no server and no cache. One seeded
// catalog holds a disjoint relation family per query shape, so a single
// PricingEngine prices the whole corpus: PTIME shapes (chains, a GChQ
// star, cycles) and NP-hard shapes (H1-H3 full, which the engine sends to
// the clause solver, and their projections, which go to branch and
// bound). A sequential phase times each Price call; a second phase prices
// the same corpus through a 4-thread BatchPricer.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "layers.h"
#include "qp/obs/metrics.h"
#include "qp/pricing/batch_pricer.h"
#include "qp/pricing/classifier.h"
#include "qp/pricing/engine.h"
#include "qp/pricing/gchq_solver.h"
#include "qp/pricing/work_problem.h"
#include "qp/query/parser.h"
#include "qp/util/random.h"
#include "qp/workload/join_workloads.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kBatchThreads = 4;
constexpr int kBatchRepeats = 4;
/// Replay request ids start here, clear of the timed phase's ids.
constexpr uint64_t kReplayRequestBase = uint64_t{1} << 48;
constexpr int kSetupRepeats = 15;

struct Shape {
  const char* name;
  bool nphard;
  /// Project the head down to x (a non-full query: branch and bound).
  bool project;
  std::function<qp::Result<qp::Workload>(uint64_t seed)> make;
};

qp::JoinWorkloadParams Params(int n, double density, uint64_t seed) {
  qp::JoinWorkloadParams p;
  p.column_size = n;
  p.tuple_density = density;
  p.seed = seed;
  return p;
}

/// The sizes of the matching bench_main rows.
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {"chain_k2_n64", false, false,
       [](uint64_t s) { return qp::MakeChainWorkload(2, Params(64, 0.3, s)); }},
      {"chain_k8_n32", false, false,
       [](uint64_t s) { return qp::MakeChainWorkload(8, Params(32, 0.3, s)); }},
      {"gchq_star_h6", false, false,
       [](uint64_t s) { return qp::MakeStarWorkload(6, Params(6, 0.3, s)); }},
      {"cycle_c2_n8", false, false,
       [](uint64_t s) { return qp::MakeCycleWorkload(2, Params(8, 0.4, s)); }},
      {"cycle_c3_n6", false, false,
       [](uint64_t s) { return qp::MakeCycleWorkload(3, Params(6, 0.4, s)); }},
      {"h1_n3", true, false,
       [](uint64_t s) {
         return qp::MakeHardQueryWorkload(qp::HardQuery::kH1,
                                          Params(3, 0.4, s));
       }},
      {"h2_n4", true, false,
       [](uint64_t s) {
         return qp::MakeHardQueryWorkload(qp::HardQuery::kH2,
                                          Params(4, 0.4, s));
       }},
      {"h3_n6", true, false,
       [](uint64_t s) {
         return qp::MakeHardQueryWorkload(qp::HardQuery::kH3,
                                          Params(6, 0.4, s));
       }},
      {"h1_n2_proj", true, true,
       [](uint64_t s) {
         return qp::MakeHardQueryWorkload(qp::HardQuery::kH1,
                                          Params(2, 0.4, s));
       }},
      {"h2_n2_proj", true, true,
       [](uint64_t s) {
         return qp::MakeHardQueryWorkload(qp::HardQuery::kH2,
                                          Params(2, 0.4, s));
       }},
  };
  return shapes;
}

/// Distinct instances (data seeds) of every shape in the corpus.
constexpr int kCopiesPerShape = 8;

/// Rewrites a query text over a family's own relation names to the merged
/// catalog's prefixed names: every identifier directly followed by '(' in
/// the body is a relation.
std::string PrefixBody(const std::string& text, const std::string& prefix,
                       const std::string& head) {
  size_t sep = text.find(":-");
  std::string body = text.substr(sep + 2);
  std::string out;
  size_t i = 0;
  while (i < body.size()) {
    if (std::isalpha(static_cast<unsigned char>(body[i]))) {
      size_t j = i;
      while (j < body.size() &&
             (std::isalnum(static_cast<unsigned char>(body[j])) ||
              body[j] == '_')) {
        ++j;
      }
      if (j < body.size() && body[j] == '(') out += prefix;
      out += body.substr(i, j - i);
      i = j;
    } else {
      out += body[i++];
    }
  }
  return head + " :-" + out;
}

struct Entry {
  std::string shape;
  bool nphard = false;
  std::string text;
  qp::ConjunctiveQuery query;
  /// The same query over the family's standalone catalog (the oracle).
  size_t family = 0;
  qp::ConjunctiveQuery local_query;
};

struct Corpus {
  std::vector<qp::Workload> families;
  std::unique_ptr<qp::Catalog> catalog;
  std::unique_ptr<qp::Instance> db;
  qp::SelectionPriceSet prices;
  std::unique_ptr<qp::PricingEngine> engine;
  std::vector<Entry> entries;
};

qp::Status BuildCorpus(uint64_t seed, Corpus* c) {
  c->catalog = std::make_unique<qp::Catalog>();
  struct Pending {
    size_t family;
    std::string prefix;
    std::vector<qp::RelationId> rel_map;
  };
  std::vector<Pending> pending;
  const std::vector<Shape>& shapes = Shapes();
  for (size_t s = 0; s < shapes.size(); ++s) {
    for (int copy = 0; copy < kCopiesPerShape; ++copy) {
      uint64_t fseed = Mix(seed * 1000003ULL + s * 101 + copy);
      QP_ASSIGN_OR_RETURN(qp::Workload w, shapes[s].make(fseed));
      Pending p;
      p.family = c->families.size();
      p.prefix = "F" + std::to_string(p.family) + "_";
      const qp::Schema& schema = w.catalog->schema();
      for (qp::RelationId r = 0; r < schema.num_relations(); ++r) {
        std::vector<std::string> attrs;
        for (int pos = 0; pos < schema.arity(r); ++pos) {
          attrs.push_back(schema.attr_name(qp::AttrRef{r, pos}));
        }
        QP_ASSIGN_OR_RETURN(
            qp::RelationId nr,
            c->catalog->AddRelation(p.prefix + schema.relation_name(r),
                                    attrs));
        p.rel_map.push_back(nr);
        for (int pos = 0; pos < schema.arity(r); ++pos) {
          std::vector<qp::Value> col;
          for (qp::ValueId id : w.catalog->Column(qp::AttrRef{r, pos})) {
            col.push_back(w.catalog->dict().Get(id));
          }
          QP_RETURN_IF_ERROR(c->catalog->SetColumn(qp::AttrRef{nr, pos}, col));
        }
      }
      std::string local = w.query.ToString(schema);
      std::string head = local.substr(0, local.find(":-") - 1);
      if (shapes[s].project) head = "P(x)";
      Entry e;
      e.shape = shapes[s].name;
      e.nphard = shapes[s].nphard;
      e.family = p.family;
      e.text = PrefixBody(local, p.prefix, head);
      QP_ASSIGN_OR_RETURN(
          e.local_query,
          qp::ParseQuery(schema, PrefixBody(local, "", head)));
      c->entries.push_back(std::move(e));
      c->families.push_back(std::move(w));
      pending.push_back(std::move(p));
    }
  }
  c->db = std::make_unique<qp::Instance>(c->catalog.get());
  for (const Pending& p : pending) {
    const qp::Workload& w = c->families[p.family];
    const qp::Schema& schema = w.catalog->schema();
    for (qp::RelationId r = 0; r < schema.num_relations(); ++r) {
      for (const qp::Tuple& t : w.db->Relation(r)) {
        qp::Tuple nt;
        for (qp::ValueId id : t) {
          nt.push_back(c->catalog->Intern(w.catalog->dict().Get(id)));
        }
        QP_RETURN_IF_ERROR(c->db->Insert(p.rel_map[r], nt).status());
      }
    }
    for (const auto& [view, price] : w.prices.entries()) {
      qp::SelectionView nv{qp::AttrRef{p.rel_map[view.attr.rel], view.attr.pos},
                           c->catalog->Intern(w.catalog->dict().Get(view.value))};
      QP_RETURN_IF_ERROR(c->prices.Set(nv, price));
    }
  }
  for (Entry& e : c->entries) {
    QP_ASSIGN_OR_RETURN(e.query, qp::ParseQuery(c->catalog->schema(), e.text));
  }
  c->engine = std::make_unique<qp::PricingEngine>(c->db.get(), &c->prices);
  return qp::Status::Ok();
}

/// Sequential pricing of the corpus in seeded shuffled passes until
/// `seconds` elapse (at least one full pass). Every price must equal
/// `expected` (filled on first use).
struct SeqStats {
  Samples ptime;
  Samples nphard;
  /// Thread CPU time of each Price call (µs), per class.
  Samples ptime_cpu;
  Samples nphard_cpu;
  std::map<std::string, Samples> by_shape;
  uint64_t prices = 0;
  double elapsed_s = 0;
};

void CheckQuote(const qp::Result<qp::PriceQuote>& q, size_t i,
                std::vector<int64_t>* expected, OpCounts* ops,
                RunResult* result, const char* phase) {
  ++ops->attempted;
  if (!q.ok()) {
    ++ops->failed;
    if (q.status().code() == qp::StatusCode::kResourceExhausted) ++ops->shed;
    result->Fail(std::string(phase) + ": price failed: " +
                 q.status().ToString());
    return;
  }
  ++ops->succeeded;
  if (q->solution.approximate) {
    result->Fail(std::string(phase) + ": approximate quote for entry " +
                 std::to_string(i));
  }
  int64_t& want = (*expected)[i];
  if (want < 0) {
    want = q->solution.price;
  } else if (want != q->solution.price) {
    result->Fail(std::string(phase) + ": price of entry " +
                 std::to_string(i) + " changed from " + std::to_string(want) +
                 " to " + std::to_string(q->solution.price));
  }
}

SeqStats RunSequential(const Corpus& c, uint64_t seed, double seconds,
                       Tracer* tracer, std::vector<int64_t>* expected,
                       OpCounts* ops, RunResult* result) {
  SeqStats st;
  std::vector<size_t> order(c.entries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  qp::Rng rng(Mix(seed ^ 0x5e9));
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t request = 0;
  do {
    rng.Shuffle(order);
    for (size_t i : order) {
      const Entry& e = c.entries[i];
      const uint64_t cpu0 = ThreadCpuNs();
      const uint64_t t0 = NowNs();
      int64_t span = tracer->Begin("engine.price", ++request);
      auto q = c.engine->Price(e.query);
      tracer->End(span);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      (e.nphard ? st.nphard_cpu : st.ptime_cpu)
          .Add(static_cast<double>(ThreadCpuNs() - cpu0) / 1e3);
      (e.nphard ? st.nphard : st.ptime).Add(us);
      st.by_shape[e.shape].Add(us);
      ++st.prices;
      CheckQuote(q, i, expected, ops, result, "sequential");
    }
  } while (NowNs() < stop);
  st.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return st;
}

struct BatchStats {
  uint64_t prices = 0;
  double elapsed_s = 0;
  /// Prices/s of each PriceAll call; the median is the reported rate, so a
  /// call slowed by a burst of stolen CPU time does not move it.
  Samples call_rates;
};

BatchStats RunBatch(const Corpus& c, double seconds,
                    std::vector<int64_t>* expected, OpCounts* ops,
                    RunResult* result) {
  BatchStats st;
  qp::BatchPricerOptions options;
  options.num_threads = kBatchThreads;
  qp::BatchPricer pricer(c.engine.get(), options);
  // Each PriceAll gets the corpus several times over, so the stragglers
  // at the end of a batch (one slow solve with three idle threads) are a
  // small share of the phase.
  std::vector<qp::ConjunctiveQuery> queries;
  for (int rep = 0; rep < kBatchRepeats; ++rep) {
    for (const Entry& e : c.entries) queries.push_back(e.query);
  }
  // The pool is built lazily by the first PriceAll; build it before the
  // clock starts so the phase times pricing only.
  (void)pricer.PriceAll({});
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  do {
    const uint64_t call_start = NowNs();
    std::vector<qp::Result<qp::PriceQuote>> quotes = pricer.PriceAll(queries);
    st.call_rates.Add(static_cast<double>(quotes.size()) * 1e9 /
                      static_cast<double>(NowNs() - call_start));
    for (size_t i = 0; i < quotes.size(); ++i) {
      CheckQuote(quotes[i], i % c.entries.size(), expected, ops, result,
                 "batch");
    }
    st.prices += quotes.size();
  } while (NowNs() < stop);
  st.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return st;
}

/// One serial pass over the corpus with a span around each layer call:
/// classify, Step 1-2 WorkProblem build (full queries), the engine's
/// Price, and for GChQ queries a direct PriceGChQQuery for its graph size.
/// Counters of this pass depend only on the seed.
void TracedReplay(const Corpus& c, Tracer* tracer,
                  std::map<std::string, Samples>* price_by_solver,
                  double* gchq_edges_per_solve, RunResult* result) {
  uint64_t edges = 0;
  uint64_t gchq_solves = 0;
  for (size_t i = 0; i < c.entries.size(); ++i) {
    const Entry& e = c.entries[i];
    const uint64_t req = kReplayRequestBase + i;
    Tracer::Scope root(tracer, "solve.request", req);
    qp::QueryClassification cls;
    {
      Tracer::Scope s(tracer, "engine.classify", req, root.index());
      cls = qp::ClassifyConnectedQuery(e.query);
    }
    // Step 1-2 apply to full, self-join-free queries (H3's self-join is
    // outside the dichotomy and never builds one).
    if (e.query.IsFull() && cls.cls != qp::PricingClass::kOutsideDichotomy) {
      Tracer::Scope s(tracer, "engine.workproblem", req, root.index());
      auto wp = qp::BuildWorkProblem(*c.db, c.prices, e.query);
      if (!wp.ok()) result->Fail("BuildWorkProblem: " + wp.status().ToString());
    }
    uint64_t t0 = NowNs();
    qp::Result<qp::PriceQuote> q = qp::Status::Internal("unset");
    {
      Tracer::Scope s(tracer, "engine.price", req, root.index());
      q = c.engine->Price(e.query);
    }
    double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!q.ok()) {
      result->Fail("replay price: " + q.status().ToString());
      continue;
    }
    (*price_by_solver)[SolverKey(q->solver)].Add(us);
    if (cls.cls == qp::PricingClass::kGChQ) {
      qp::GChQSolveStats stats;
      Tracer::Scope s(tracer, "flow.gchq_solve", req, root.index());
      auto sol = qp::PriceGChQQuery(*c.db, c.prices, e.query, cls.gchq_order,
                                    {}, &stats);
      if (!sol.ok() || sol->price != q->solution.price) {
        result->Fail("PriceGChQQuery disagrees with the engine on " + e.text);
      }
      edges += static_cast<uint64_t>(stats.total_edges);
      ++gchq_solves;
    }
  }
  *gchq_edges_per_solve =
      gchq_solves == 0 ? 0 : static_cast<double>(edges) / gchq_solves;
}

}  // namespace

void RunSolveMix(const Options& o, RunResult* r) {
  // Set-up: corpus generation, catalog merge, parse, engine build.
  // Repeated, median reported; the engine points into the corpus, so the
  // corpus stays where it was built.
  std::vector<double> setups;
  std::unique_ptr<Corpus> built;
  for (int i = 0; i < kSetupRepeats; ++i) {
    built = std::make_unique<Corpus>();
    uint64_t t0 = NowNs();
    qp::Status st = BuildCorpus(o.seed, built.get());
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!st.ok()) {
      r->Fail("corpus build: " + st.ToString());
      return;
    }
  }
  std::sort(setups.begin(), setups.end());
  const Corpus& corpus = *built;

  size_t n_ptime = 0;
  for (const Entry& e : corpus.entries) n_ptime += e.nphard ? 0 : 1;
  r->Info("corpus.queries", static_cast<double>(corpus.entries.size()),
          "count");
  r->Info("corpus.ptime_queries", static_cast<double>(n_ptime), "count");

  std::vector<int64_t> expected(corpus.entries.size(), -1);
  OpCounts& price_ops = r->ops["price"];
  OpCounts& batch_ops = r->ops["batch_price"];
  // Warm-up: one untimed pass fixes the reference prices and faults in
  // lazily-built state (allocator arenas, dictionary pages).
  {
    Tracer off(false);
    OpCounts warm;
    RunSequential(corpus, o.seed, 0, &off, &expected, &warm, r);
  }

  const double seq_share = 0.6;
  Tracer untraced(false);
  SeqStats seq;
  SeqStats traced_seq;
  Tracer tracer(o.trace, 1 << 20);
  qp::MetricsRegistry& reg = qp::MetricsRegistry::Global();
  const uint64_t steal0 = StealTicks();
  if (!o.trace) {
    seq = RunSequential(corpus, o.seed, o.seconds * seq_share, &untraced,
                        &expected, &price_ops, r);
  } else {
    // Half untraced, half traced, in the same seeded order: the difference
    // is the tracing overhead.
    seq = RunSequential(corpus, o.seed, o.seconds * seq_share / 2, &untraced,
                        &expected, &price_ops, r);
    traced_seq = RunSequential(corpus, o.seed, o.seconds * seq_share / 2,
                               &tracer, &expected, &price_ops, r);
  }
  r->Info("host.steal_pct.sequential",
          StealPercent(steal0, StealTicks(), seq.elapsed_s + traced_seq.elapsed_s),
          "%");
  MetricsView before_batch = FromSnapshot(reg.Snapshot());
  const uint64_t steal1 = StealTicks();
  BatchStats batch = RunBatch(corpus, o.seconds * (1 - seq_share), &expected,
                              &batch_ops, r);
  MetricsView batch_delta =
      Delta(FromSnapshot(reg.Snapshot()), before_batch);
  r->Info("host.steal_pct.batch",
          StealPercent(steal1, StealTicks(), batch.elapsed_s), "%");

  // Oracle: each family priced alone must match its merged-catalog price
  // (a query's price reads only its own relations).
  uint64_t digest = 1469598103934665603ULL;
  for (size_t i = 0; i < corpus.entries.size(); ++i) {
    const Entry& e = corpus.entries[i];
    const qp::Workload& w = corpus.families[e.family];
    qp::PricingEngine alone(w.db.get(), &w.prices);
    auto q = alone.Price(e.local_query);
    if (!q.ok() || q->solution.price != expected[i]) {
      r->Fail("merged-catalog price differs from the standalone family for " +
              e.text);
    }
    digest = (digest ^ static_cast<uint64_t>(expected[i])) * 1099511628211ULL;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"%016llx\"",
                static_cast<unsigned long long>(digest));
  r->extra_json["price_digest"] = hex;
  std::printf("price digest %s\n", hex);

  const double seq_rate = Ratio(static_cast<double>(seq.prices), seq.elapsed_s);
  const double solve_qps = batch.call_rates.Percentile(50);
  r->Info("solve_qps_whole_phase",
          Ratio(static_cast<double>(batch.prices), batch.elapsed_s), "1/s");
  r->Info("batch.calls", static_cast<double>(batch.call_rates.size()), "count");
  r->Info("price_ptime.samples", static_cast<double>(seq.ptime.size()),
          "count");
  r->Info("price_nphard.samples", static_cast<double>(seq.nphard.size()),
          "count");
  r->Info("price_ptime.beyond_p99", static_cast<double>(seq.ptime.Beyond(99)),
          "count");
  r->Info("price_nphard.beyond_p99",
          static_cast<double>(seq.nphard.Beyond(99)), "count");
  r->Info("price_ptime_p50_us", seq.ptime.Percentile(50), "us");
  r->Info("price_ptime_p99_us", seq.ptime.Percentile(99), "us");
  r->Info("price_nphard_p50_us", seq.nphard.Percentile(50), "us");
  r->Info("price_nphard_p99_us", seq.nphard.Percentile(99), "us");
  r->Info("solve_qps", solve_qps, "1/s");
  for (const auto& [shape, samples] : seq.by_shape) {
    r->Info("shape." + shape + ".p50_us", samples.Percentile(50), "us");
    r->Info("shape." + shape + ".max_us", samples.Percentile(100), "us");
  }
  r->Info("sequential_prices_per_s", seq_rate, "1/s");

  const double ptime_cpu_us = seq.ptime_cpu.Percentile(50);
  const double nphard_cpu_us = seq.nphard_cpu.Percentile(50);
  r->Info("price_ptime_cpu_p50_us", ptime_cpu_us, "us");
  r->Info("price_nphard_cpu_p50_us", nphard_cpu_us, "us");

  if (!o.trace) {
    r->Set("setup_s", setups[setups.size() / 2], "s");
    r->Set("rss_mb", PeakRssMb(), "MiB");
    r->Set("throughput_per_s", solve_qps, "1/s");
    r->Set("cpu_us_per_op", ptime_cpu_us, "us");
    r->Set("aux_cpu_us_per_op", nphard_cpu_us, "us");
    return;
  }
  r->Set("e2e.quote_p50_us", seq.ptime.Percentile(50), "us");
  r->Set("e2e.quote_p99_us", seq.ptime.Percentile(99), "us");
  r->Set("e2e.aux_p50_us", seq.nphard.Percentile(50), "us");
  r->Set("e2e.aux_tail_us", seq.nphard.Percentile(99), "us");

  // Traced: one serial replay pass with layer spans; registry deltas over
  // exactly that pass, so counts depend on the seed alone.
  MetricsView before = FromSnapshot(reg.Snapshot());
  std::map<std::string, Samples> price_by_solver;
  double edges_per_solve = 0;
  TracedReplay(corpus, &tracer, &price_by_solver, &edges_per_solve, r);
  MetricsView d = Delta(FromSnapshot(reg.Snapshot()), before);

  std::map<std::string, Samples> dur = tracer.Durations();
  r->Set("engine.classify_us", dur["engine.classify"].Mean(), "us");
  r->Set("engine.workproblem_us", dur["engine.workproblem"].Mean(), "us");
  SetSolverLayerMetrics(d, price_by_solver, r);
  r->Set("flow.edges_per_solve", edges_per_solve, "count");
  r->Set("batch.queue_wait_us",
         batch_delta.HistMean("qp.batch.queue_wait_ns", 1e-3), "us");
  r->Set("batch.parallel_efficiency", Ratio(solve_qps, kBatchThreads * seq_rate),
         "ratio");
  r->Set("trace.overhead_us",
         traced_seq.ptime.Percentile(50) - seq.ptime.Percentile(50), "us");
  r->Info("trace.untraced_quote_p50_us", seq.ptime.Percentile(50), "us");
  r->Info("trace.traced_quote_p50_us", traced_seq.ptime.Percentile(50), "us");
  for (const auto& [name, s] : tracer.SelfTimes()) {
    r->Info("self_us." + name, s.Mean(), "us");
  }
  if (!tracer.WriteJsonLines(o.out_dir + "/solve_mix-seed" +
                             std::to_string(o.seed) + "-spans.jsonl")) {
    r->Fail("cannot write spans");
  }
}

}  // namespace perfbench
