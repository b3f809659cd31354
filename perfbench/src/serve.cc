// serve_churn: the real qpricerd over loopback, driven open loop by the
// benchmark's own load generator through the wire protocol. Two buyer
// connections quote on a fixed schedule, 80% to a hot set that reads
// InState and 20% to a tail of >4096 point queries; one seller connection
// adds a fresh InState row on its own schedule, so every INSERT publishes
// once and invalidates the hot set.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "layers.h"
#include "qp/market/snapshot.h"
#include "qp/server/client.h"
#include "qp/server/query_memo.h"
#include "qp/server/wire.h"
#include "qp/util/random.h"
#include "qp/workload/business.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
/// Quotes answered later than this after their scheduled send miss the
/// goodput limit.
constexpr double kGoodputLimitUs = 20000;
/// (text, snapshot_version) pairs re-priced in-process after a run.
constexpr size_t kVerifySample = 160;

/// At 1500 businesses and 10 INSERTs/s, warming re-solves kept the daemon
/// at about 0.55 cores and pushed the quote p75 to 5.8 ms; at 800 it uses
/// about 0.3 cores.
constexpr int kBusinesses = 800;
/// The first kHotTexts texts are the hot set.
constexpr int kHotTexts = 12;
/// Two buyers and one seller. Each connection gets a worker of its own,
/// and one more serves warming and METRICS, so no request waits for a
/// worker that another connection holds while it lingers (up to 1 ms after
/// each frame) for that connection's next frame.
constexpr int kBuyers = 2;
constexpr int kWorkers = kBuyers + 2;
/// Per buyer, one quote every kQuoteIntervalNs (the two buyers offset by
/// half an interval); the seller inserts every kInsertIntervalNs.
constexpr uint64_t kQuoteIntervalNs = 5000000;     // 200/s per buyer
constexpr uint64_t kInsertIntervalNs = 100000000;  // 10/s
constexpr double kHotShare = 0.8;
/// An untraced run spends this share of its time in the publish phase,
/// which sends an INSERT of a fresh InCounty row every kPublishGapNs.
constexpr double kPublishShare = 0.15;
constexpr uint64_t kPublishGapNs = 5000000;
/// The serial traced replay covers this much of the schedule.
constexpr uint64_t kReplayNs = 4000000000ULL;

/// A request of the seeded stream: a QUOTE of text `text`, or an INSERT of
/// walk row `insert`.
struct Request {
  enum Kind { kQuote, kInsert } kind = kQuote;
  int text = -1;
  int insert = -1;
  /// Scheduled send time, ns after the phase start.
  uint64_t due_ns = 0;
};

struct ChurnSpec {
  std::vector<std::string> daemon_args;
  /// The hot set first, then the tail.
  std::vector<std::string> texts;
  /// Fresh InState rows (business, state), in walk order.
  std::vector<std::pair<std::string, std::string>> walk;
  /// Fresh InCounty rows (business, county) for the publish phase.
  std::vector<std::pair<std::string, std::string>> county_walk;
};

bool IsHot(int text) { return text < kHotTexts; }

/// Exactly qpricerd's generated one-shard market (seeded 7).
qp::Status BuildMarket(qp::ShardMap* out) {
  auto seller = std::make_unique<qp::Seller>("shard0");
  qp::BusinessMarketParams params;
  params.num_businesses = kBusinesses;
  params.seed = 7;
  QP_RETURN_IF_ERROR(qp::PopulateBusinessMarket(seller.get(), params));
  auto report = seller->Publish();
  if (!report.ok()) return report.status();
  if (!report->consistent) return qp::Status::Internal("inconsistent shard");
  return out->AddShard("shard0", std::move(seller));
}

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

/// The hot-set shapes over state `state`.
std::vector<std::string> StateTexts(const std::string& state) {
  return {
      "QE(b) :- Email(b), InState(b," + Quoted(state) + ")",
      "QB(b) :- Business(b), InState(b," + Quoted(state) + ")",
      "QX() :- Email(b), InState(b," + Quoted(state) + ")",
      "QS(b) :- InState(b," + Quoted(state) + ")",
  };
}

/// Point-query shapes over one business (the tail).
constexpr int kBizShapes = 6;

std::string BizText(int kind, int biz) {
  std::string b = Quoted("biz" + std::to_string(biz));
  switch (kind) {
    case 0:
      return "QP(s) :- InState(" + b + ", s)";
    case 1:
      return "QN(c) :- InCounty(" + b + ", c)";
    case 2:
      return "QM(s,c) :- InState(" + b + ", s), InCounty(" + b + ", c)";
    case 3:
      return "QG() :- Email(" + b + ")";
    case 4:
      return "QH() :- Business(" + b + ")";
    default:
      return "QT(s) :- InState(" + b + ", s), Email(" + b + ")";
  }
}

/// The (business, value) rows of binary relation `rel` absent from `db`,
/// for every business and every one of `values`.
std::vector<std::pair<std::string, std::string>> FreshRows(
    const qp::Instance& db, const std::string& rel,
    const std::vector<std::string>& values) {
  std::vector<std::pair<std::string, std::string>> rows;
  auto id = db.catalog().schema().FindRelation(rel);
  for (int b = 0; b < kBusinesses; ++b) {
    const std::string biz = "biz" + std::to_string(b);
    auto bid = db.catalog().dict().Find(qp::Value::Str(biz));
    for (const std::string& v : values) {
      auto vid = db.catalog().dict().Find(qp::Value::Str(v));
      if (id.ok() && bid && vid && db.Contains(*id, qp::Tuple{*bid, *vid})) {
        continue;
      }
      rows.emplace_back(biz, v);
    }
  }
  return rows;
}

ChurnSpec MakeSpec(uint64_t seed, const qp::ShardMap& market) {
  ChurnSpec s;
  s.daemon_args = {"--shards=1", "--workers=" + std::to_string(kWorkers),
                   "--businesses=" + std::to_string(kBusinesses)};
  qp::Rng rng(Mix(seed ^ 0xc4a));
  qp::BusinessMarketParams params;
  params.num_businesses = kBusinesses;
  const std::vector<std::string> states = qp::BusinessStates(params);
  // The hot set: three texts of each StateTexts shape on seeded states. A
  // fixed shape mix keeps the hot set's re-solve cost the same across
  // seeds; the seed picks the states and the request stream. A shape
  // joining InCounty (~3 ms cold at 800 businesses) is left out so that
  // warming and cold re-solves stay well below the daemon's capacity.
  for (size_t shape = 0; shape < 4; ++shape) {
    std::vector<std::string> picked = states;
    rng.Shuffle(picked);
    for (int k = 0; k < kHotTexts / 4; ++k) {
      s.texts.push_back(StateTexts(picked[static_cast<size_t>(k)])[shape]);
    }
  }
  // The tail: every point query over every business (6 x 800 = 4800
  // distinct texts, more than the 4096-entry parse memo holds).
  for (int kind = 0; kind < kBizShapes; ++kind) {
    for (int b = 0; b < kBusinesses; ++b) s.texts.push_back(BizText(kind, b));
  }
  // The insert walks: every (business, state) and every (business,
  // county) pair not in the seed data, shuffled. Each one is new, so each
  // INSERT publishes exactly once.
  std::vector<std::string> counties;
  for (const std::string& st : states) {
    for (int c = 0; c < params.counties_per_state; ++c) {
      counties.push_back(st + "/c" + std::to_string(c));
    }
  }
  const qp::Instance& db = market.shard(0)->seller->db();
  s.walk = FreshRows(db, "InState", states);
  s.county_walk = FreshRows(db, "InCounty", counties);
  rng.Shuffle(s.walk);
  rng.Shuffle(s.county_walk);
  return s;
}

/// Per-connection outcome of a load phase.
struct ConnLog {
  explicit ConnLog(bool trace) : tracer(trace, 1 << 18) {}
  Samples quote;      // µs, from the scheduled send
  Samples hot_quote;  // the quotes of `quote` that went to a hot text
  Samples insert;
  Samples insert_rtt;  // µs, send to reply
  Samples rtt_all;     // µs, send to reply, every frame
  Samples late;     // µs, send lateness
  OpCounts quote_ops;
  OpCounts insert_ops;
  uint64_t good_quotes = 0;
  uint64_t hot_post_publish = 0;
  /// (text index, snapshot version) -> price, for verification.
  std::map<std::pair<int, uint64_t>, int64_t> seen;
  std::vector<std::string> errors;
  Tracer tracer;

  void Error(std::string e) {
    if (errors.size() < 10) errors.push_back(std::move(e));
  }
  void Record(int text, uint64_t version, int64_t price, bool approximate) {
    if (approximate) Error("approximate quote for text " + std::to_string(text));
    auto [it, fresh] = seen.emplace(std::make_pair(text, version), price);
    if (!fresh && it->second != price) {
      Error("text " + std::to_string(text) + " at version " +
            std::to_string(version) + " priced both " +
            std::to_string(it->second) + " and " + std::to_string(price));
    }
  }
};

void CountFailure(const qp::Status& st, OpCounts* ops, ConnLog* log,
                  const char* what) {
  ++ops->failed;
  if (st.code() == qp::StatusCode::kResourceExhausted) ++ops->shed;
  log->Error(std::string(what) + " failed: " + st.ToString());
}

/// Sends one request on `client` and books its outcome. Latency runs from
/// `due_ns`, the request's scheduled send time.
void Send(const ChurnSpec& spec, const Request& req, uint64_t due_ns,
          uint64_t request_id, qp::PricingClient* client,
          uint64_t* insert_version, ConnLog* log) {
  const uint64_t send_ns = NowNs();
  if (req.kind == Request::kQuote) {
    const std::string& text = spec.texts[static_cast<size_t>(req.text)];
    int64_t span = log->tracer.Begin("client.quote", request_id);
    auto reply = client->Quote(0, text);
    log->tracer.End(span);
    const uint64_t end = NowNs();
    const double us = static_cast<double>(end - due_ns) / 1e3;
    log->rtt_all.Add(static_cast<double>(end - send_ns) / 1e3);
    ++log->quote_ops.attempted;
    if (!reply.ok()) return CountFailure(reply.status(), &log->quote_ops, log, "quote");
    ++log->quote_ops.succeeded;
    log->quote.Add(us);
    if (IsHot(req.text)) {
      log->hot_quote.Add(us);
      if (reply->snapshot_version > 0) ++log->hot_post_publish;
    }
    if (us <= kGoodputLimitUs && !reply->approximate) ++log->good_quotes;
    log->Record(req.text, reply->snapshot_version, reply->price,
                reply->approximate);
    return;
  }
  const auto& [biz, state] = spec.walk[static_cast<size_t>(req.insert)];
  int64_t span = log->tracer.Begin("client.insert", request_id);
  auto reply =
      client->Insert(0, "InState", {{qp::Value::Str(biz), qp::Value::Str(state)}});
  log->tracer.End(span);
  const uint64_t end = NowNs();
  log->rtt_all.Add(static_cast<double>(end - send_ns) / 1e3);
  ++log->insert_ops.attempted;
  if (!reply.ok()) return CountFailure(reply.status(), &log->insert_ops, log, "insert");
  // A fresh row must publish exactly one new version; anything else (a
  // duplicate, a skipped version) is a failed operation.
  if (reply->rows_inserted != 1 ||
      reply->snapshot_version != *insert_version + 1) {
    ++log->insert_ops.failed;
    log->Error("insert of walk row " + std::to_string(req.insert) +
               " returned rows_inserted=" + std::to_string(reply->rows_inserted) +
               " version " + std::to_string(reply->snapshot_version) +
               ", expected 1 and " + std::to_string(*insert_version + 1));
    return;
  }
  *insert_version = reply->snapshot_version;
  ++log->insert_ops.succeeded;
  log->insert.Add(static_cast<double>(end - due_ns) / 1e3);
  log->insert_rtt.Add(static_cast<double>(end - send_ns) / 1e3);
}

// ---- The seeded request stream (load phase and serial replay) ----

Request ChurnQuote(qp::Rng* rng, size_t num_texts, int buyer, uint64_t i) {
  Request req;
  req.due_ns = i * kQuoteIntervalNs +
               static_cast<uint64_t>(buyer) * kQuoteIntervalNs / kBuyers;
  if (rng->NextDouble() < kHotShare) {
    req.text = static_cast<int>(rng->NextBelow(kHotTexts));
  } else {
    req.text = kHotTexts + static_cast<int>(rng->NextBelow(num_texts - kHotTexts));
  }
  return req;
}

Request ChurnInsert(uint64_t k) {
  Request req;
  req.kind = Request::kInsert;
  req.insert = static_cast<int>(k);
  req.due_ns = k * kInsertIntervalNs + kInsertIntervalNs / 2;
  return req;
}

uint64_t StreamSeed(uint64_t seed, int conn) {
  return Mix(seed * 131 + static_cast<uint64_t>(conn));
}

// ---- Daemon set-up ----

struct Metrics {
  bool ok = false;
  MetricsView view;
};

Metrics FetchMetrics(qp::PricingClient* client) {
  Metrics m;
  auto reply = client->Metrics();
  if (reply.ok()) m.ok = ParseMetricsJson(reply->json, &m.view);
  return m;
}

/// Spawns qpricerd (returning once it listens) and quotes every hot text
/// twice, so the load starts on a warm parse memo, cache and hot tracker.
std::unique_ptr<Daemon> StartDaemon(const Options& o, const ChurnSpec& spec,
                                    RunResult* r) {
  std::string error;
  std::unique_ptr<Daemon> daemon =
      Daemon::Spawn(o.daemon_path, spec.daemon_args, &error);
  if (daemon == nullptr) {
    r->Fail("spawn qpricerd: " + error);
    return nullptr;
  }
  auto client = qp::PricingClient::Connect("127.0.0.1", daemon->port());
  if (!client.ok()) {
    r->Fail("connect: " + client.status().ToString());
    return nullptr;
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kHotTexts; ++i) {
      const std::string& text = spec.texts[static_cast<size_t>(i)];
      auto q = client->Quote(0, text);
      if (!q.ok()) {
        r->Fail("warm-up quote '" + text + "': " + q.status().ToString());
        return nullptr;
      }
    }
  }
  return daemon;
}

/// Starts the daemon kSetupRepeats times, keeps the last one, and reports
/// the median set-up time.
std::unique_ptr<Daemon> SetUp(const Options& o, const ChurnSpec& spec,
                              double* setup_s, RunResult* r) {
  std::vector<double> times;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon != nullptr && !daemon->Stop()) {
      r->Fail("qpricerd did not exit cleanly after a set-up pass");
    }
    const uint64_t t0 = NowNs();
    daemon = StartDaemon(o, spec, r);
    if (daemon == nullptr) return nullptr;
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::sort(times.begin(), times.end());
  *setup_s = times[times.size() / 2];
  return daemon;
}

// ---- The load phase ----

struct PhaseOutcome {
  std::vector<std::unique_ptr<ConnLog>> logs;
  double elapsed_s = 0;
  MetricsView delta;
  int64_t ctl_level_max = 0;
  uint64_t inserts_sent = 0;
};

std::unique_ptr<qp::PricingClient> Connect(uint16_t port, RunResult* r) {
  auto c = qp::PricingClient::Connect("127.0.0.1", port);
  if (!c.ok()) {
    r->Fail("connect: " + c.status().ToString());
    return nullptr;
  }
  return std::make_unique<qp::PricingClient>(std::move(*c));
}

/// Open loop on a fresh daemon: buyers and the seller send on the fixed
/// schedule whether or not earlier replies have arrived.
PhaseOutcome RunLoad(const ChurnSpec& spec, uint16_t port, uint64_t seed,
                     double seconds, bool trace, RunResult* r) {
  PhaseOutcome out;
  auto monitor = Connect(port, r);
  if (monitor == nullptr) return out;
  Metrics before = FetchMetrics(monitor.get());
  int64_t level_max = before.view.Gauge("qp.server.ctl.level");
  std::vector<std::unique_ptr<qp::PricingClient>> clients;
  for (int c = 0; c <= kBuyers; ++c) {  // buyers, then the seller
    clients.push_back(Connect(port, r));
    if (clients.back() == nullptr) return out;
    out.logs.push_back(std::make_unique<ConnLog>(trace));
  }
  const uint64_t span_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t start = NowNs() + 2000000;  // let every thread reach its loop
  const uint64_t n_inserts = span_ns / kInsertIntervalNs;
  if (n_inserts > spec.walk.size()) {
    r->Fail("insert walk exhausted");
    return out;
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  auto wait_until = [](uint64_t t) {
    while (true) {
      uint64_t now = NowNs();
      if (now >= t) return;
      if (t - now > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(t - now - 100000));
      }
    }
  };
  for (int c = 0; c <= kBuyers; ++c) {
    threads.emplace_back([&, c] {
      ConnLog* log = out.logs[static_cast<size_t>(c)].get();
      qp::PricingClient* client = clients[static_cast<size_t>(c)].get();
      uint64_t version = 0;
      qp::Rng rng(StreamSeed(seed, c));
      for (uint64_t i = 0;; ++i) {
        if (c == kBuyers && i >= n_inserts) break;
        Request req = c < kBuyers ? ChurnQuote(&rng, spec.texts.size(), c, i)
                                  : ChurnInsert(i);
        if (req.due_ns >= span_ns) break;
        const uint64_t due = start + req.due_ns;
        wait_until(due);
        log->late.Add(static_cast<double>(NowNs() - due) / 1e3);
        Send(spec, req, due, (static_cast<uint64_t>(c) << 40) | i, client,
             &version, log);
      }
    });
  }
  std::thread poller;
  if (trace) {
    // The controller's level is a gauge; sample it through the run.
    poller = std::thread([&] {
      while (!done.load()) {
        Metrics m = FetchMetrics(monitor.get());
        if (m.ok) {
          level_max = std::max(level_max, m.view.Gauge("qp.server.ctl.level"));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  if (poller.joinable()) poller.join();
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  out.inserts_sent = n_inserts;
  Metrics after = FetchMetrics(monitor.get());
  if (!before.ok || !after.ok) r->Fail("METRICS frame failed");
  out.delta = Delta(after.view, before.view);
  level_max = std::max(level_max, after.view.Gauge("qp.server.ctl.level"));
  if (out.delta.Counter("qp.server.ctl.tightenings") > 0) {
    level_max = std::max<int64_t>(level_max, 1);
  }
  out.ctl_level_max = level_max;
  return out;
}

/// The publish phase, on a fresh daemon whose hot tracker holds only the
/// hot set: for `seconds`, an INSERT of a fresh InCounty row every
/// kPublishGapNs. No hot text reads InCounty, so each INSERT publishes once
/// and schedules no warming; the daemon CPU each one costs, from just
/// before its send to its reply, is the publish path's (decode, clone,
/// validate, engine rebuild, reply).
struct PublishOutcome {
  Samples cpu;  // µs of daemon CPU per INSERT
  Samples rtt;  // µs, send to reply
};

PublishOutcome RunPublishPhase(const Options& o, const ChurnSpec& spec,
                               double seconds, RunResult* r) {
  PublishOutcome out;
  std::unique_ptr<Daemon> daemon = StartDaemon(o, spec, r);
  if (daemon == nullptr) return out;
  auto client = Connect(daemon->port(), r);
  if (client == nullptr) return out;
  Metrics before = FetchMetrics(client.get());
  OpCounts& ops = r->ops["publish_insert"];
  uint64_t version = 0;
  const uint64_t stop = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (const auto& [biz, county] : spec.county_walk) {
    if (NowNs() >= stop) break;
    std::this_thread::sleep_for(std::chrono::nanoseconds(kPublishGapNs));
    const uint64_t cpu0 = CpuNs(daemon->pid());
    const uint64_t t0 = NowNs();
    auto reply = client->Insert(
        0, "InCounty", {{qp::Value::Str(biz), qp::Value::Str(county)}});
    out.rtt.Add(static_cast<double>(NowNs() - t0) / 1e3);
    out.cpu.Add(static_cast<double>(CpuNs(daemon->pid()) - cpu0) / 1e3);
    ++ops.attempted;
    if (!reply.ok()) {
      ++ops.failed;
      if (reply.status().code() == qp::StatusCode::kResourceExhausted) ++ops.shed;
      r->Fail("publish-phase insert failed: " + reply.status().ToString());
      continue;
    }
    if (reply->rows_inserted != 1 || reply->snapshot_version != version + 1) {
      ++ops.failed;
      r->Fail("publish-phase insert of (" + biz + ", " + county +
              ") did not publish exactly once");
      continue;
    }
    version = reply->snapshot_version;
    ++ops.succeeded;
  }
  Metrics after = FetchMetrics(client.get());
  if (!before.ok || !after.ok) r->Fail("METRICS frame failed");
  const MetricsView d = Delta(after.view, before.view);
  if (d.Counter("qp.server.warm_tasks") != 0) {
    r->Fail("publish-phase inserts scheduled warming");
  }
  r->Info("publish.snapshot_publishes",
          static_cast<double>(d.Counter("qp.market.snapshot_publishes")),
          "count");
  if (!daemon->Stop()) r->Fail("qpricerd did not exit cleanly");
  return out;
}

// ---- Verification ----

/// Re-prices a seeded sample of the served (text, version) pairs on an
/// in-process copy of the market, replaying the insert walk up to each
/// version; every price must match bit for bit. Every phase starts a fresh
/// daemon on the same walk, so one version means one instance throughout.
void Verify(const ChurnSpec& spec, const std::vector<const ConnLog*>& logs,
            uint64_t seed, RunResult* r) {
  std::map<std::pair<int, uint64_t>, int64_t> seen;
  for (const ConnLog* log : logs) {
    for (const std::string& e : log->errors) r->Fail(e);
    for (const auto& [key, price] : log->seen) {
      auto [it, fresh] = seen.emplace(key, price);
      if (!fresh && it->second != price) {
        r->Fail("text " + std::to_string(key.first) + " at version " +
                std::to_string(key.second) + " got two prices");
      }
    }
  }
  std::vector<std::pair<int, uint64_t>> keys;
  for (const auto& [key, price] : seen) keys.push_back(key);
  qp::Rng rng(Mix(seed ^ 0x7e1));
  rng.Shuffle(keys);
  if (keys.size() > kVerifySample) keys.resize(kVerifySample);
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  qp::ShardMap market;
  qp::Status st = BuildMarket(&market);
  if (!st.ok()) return r->Fail("verify market: " + st.ToString());
  qp::ShardMap::Shard* shard = market.shard(0);
  qp::QueryMemo memo(&shard->seller->catalog().schema());
  uint64_t version = 0;
  for (const auto& key : keys) {
    while (version < key.second) {
      const auto& [biz, state] = spec.walk[version];
      auto out = shard->store->Insert(
          "InState", {{qp::Value::Str(biz), qp::Value::Str(state)}});
      if (!out.ok() || out->version != version + 1) {
        return r->Fail("verify: replaying insert " + std::to_string(version));
      }
      ++version;
    }
    const std::string& text = spec.texts[static_cast<size_t>(key.first)];
    qp::QueryMemo::Parsed scratch;
    auto parsed = memo.Get(text, &scratch);
    qp::SnapshotRef snap = shard->store->Acquire();
    if (!parsed.ok() || snap->version() != key.second) {
      return r->Fail("verify: cannot rebuild version " +
                     std::to_string(key.second));
    }
    auto q = snap->engine().Price((*parsed)->query);
    if (!q.ok() || q->solution.approximate ||
        q->solution.price != seen[key]) {
      r->Fail("wrong price: '" + text + "' at version " +
              std::to_string(key.second) + " served " +
              std::to_string(seen[key]) + ", in-process " +
              (q.ok() ? std::to_string(q->solution.price)
                      : q.status().ToString()));
    }
  }
  r->Info("verify.pairs_served", static_cast<double>(seen.size()), "count");
  r->Info("verify.pairs_repriced", static_cast<double>(keys.size()), "count");
}

// ---- Serial traced replay through the layers' public calls ----

/// The daemon's request handlers re-enacted in-process on a market of its
/// own, one request at a time, with a span around each layer call: decode,
/// parse memo, snapshot acquire, cache lookup, engine price and cache store
/// (on a miss), publish, encode. There is no transport, worker pool,
/// warming or controller.
class InProcServer {
 public:
  /// Builds the market and warms the cache with the hot set the way
  /// set-up warms the daemon's. Check ok() before use.
  InProcServer(const ChurnSpec& spec, RunResult* r) : spec_(spec), r_(r) {
    qp::Status st = BuildMarket(&market_);
    if (!st.ok()) {
      r->Fail("in-process market: " + st.ToString());
      return;
    }
    shard_ = market_.shard(0);
    memo_ = std::make_unique<qp::QueryMemo>(&shard_->seller->catalog().schema());
    Tracer off(false);
    for (int pass = 0; pass < 2; ++pass) {
      for (int i = 0; i < kHotTexts; ++i) {
        int64_t price = 0;
        if (!Quote(i, shard_->store->Acquire(), &off, 0, -1, &price)) {
          r->Fail("in-process warm-up failed on '" +
                  spec.texts[static_cast<size_t>(i)] + "'");
        }
      }
    }
    price_by_solver_.clear();
    ok_ = true;
  }

  bool ok() const { return ok_; }
  /// Price span samples by SolverKey, for the requests handled so far.
  const std::map<std::string, Samples>& price_by_solver() const {
    return price_by_solver_;
  }

  /// Serves one request.
  void Handle(const Request& req, uint64_t id, Tracer* tracer) {
    Tracer::Scope root(tracer, "server.request", id);
    const int64_t p = root.index();
    if (req.kind == Request::kQuote) {
      std::string payload = qp::EncodeQuoteRequest(
          {0, spec_.texts[static_cast<size_t>(req.text)]});
      {
        Tracer::Scope s(tracer, "server.decode", id, p);
        if (!qp::DecodeQuoteRequest(payload).ok()) r_->Fail("decode");
      }
      qp::SnapshotRef snap;
      {
        Tracer::Scope s(tracer, "market.acquire", id, p);
        snap = shard_->store->Acquire();
      }
      int64_t price = 0;
      if (!Quote(req.text, snap, tracer, id, p, &price)) {
        r_->Fail("in-process quote '" +
                 spec_.texts[static_cast<size_t>(req.text)] + "' failed");
      }
      qp::QuoteReply reply;
      reply.snapshot_version = snap->version();
      reply.price = price;
      Tracer::Scope s(tracer, "server.encode", id, p);
      qp::EncodeQuoteReplyInto(reply, &reply_buf_);
      return;
    }
    const auto& [biz, state] = spec_.walk[static_cast<size_t>(req.insert)];
    qp::InsertRequest ins;
    ins.relation = "InState";
    ins.rows = {{qp::Value::Str(biz), qp::Value::Str(state)}};
    std::string payload = qp::EncodeInsertRequest(ins);
    qp::Result<qp::InsertRequest> d = qp::Status::Internal("unset");
    {
      Tracer::Scope s(tracer, "server.decode", id, p);
      d = qp::DecodeInsertRequest(payload);
    }
    qp::Result<qp::SnapshotStore::InsertOutcome> o =
        qp::Status::Internal("unset");
    if (d.ok()) {
      Tracer::Scope s(tracer, "market.publish", id, p);
      o = shard_->store->Insert(d->relation, d->rows);
    }
    // Every walk row is fresh: exactly one row and one new version.
    const bool ok = o.ok() && o->rows_inserted == 1 &&
                    o->version == static_cast<uint64_t>(req.insert) + 1;
    if (!ok) {
      r_->Fail("in-process insert of walk row " + std::to_string(req.insert) +
               " did not publish once");
    }
    qp::InsertReply reply;
    reply.snapshot_version = o.ok() ? o->version : 0;
    reply.rows_inserted = o.ok() ? static_cast<uint32_t>(o->rows_inserted) : 0;
    Tracer::Scope s(tracer, "server.encode", id, p);
    qp::EncodeInsertReplyInto(reply, &reply_buf_);
  }

 private:
  /// Quote path of text `text` against one pinned snapshot.
  bool Quote(int text, const qp::SnapshotRef& snap, Tracer* tracer,
             uint64_t id, int64_t parent, int64_t* price) {
    qp::Result<const qp::QueryMemo::Parsed*> parsed =
        qp::Status::Internal("unset");
    {
      Tracer::Scope s(tracer, "query.parse", id, parent);
      parsed = memo_->Get(spec_.texts[static_cast<size_t>(text)], &scratch_);
    }
    if (!parsed.ok()) return false;
    std::optional<qp::PriceQuote> hit;
    {
      Tracer::Scope s(tracer, "cache.lookup", id, parent);
      hit = shard_->cache->Lookup((*parsed)->fingerprint, snap->db());
    }
    if (hit) {
      *price = hit->solution.price;
      return true;
    }
    const uint64_t t0 = NowNs();
    qp::Result<qp::PriceQuote> q = qp::Status::Internal("unset");
    {
      Tracer::Scope s(tracer, "engine.price", id, parent);
      q = snap->engine().Price((*parsed)->query);
    }
    if (!q.ok() || q->solution.approximate) return false;
    price_by_solver_[SolverKey(q->solver)].Add(
        static_cast<double>(NowNs() - t0) / 1e3);
    {
      Tracer::Scope s(tracer, "cache.store", id, parent);
      shard_->cache->Store((*parsed)->fingerprint, (*parsed)->query, snap->db(),
                           *q);
    }
    *price = q->solution.price;
    return true;
  }

  const ChurnSpec& spec_;
  RunResult* r_;
  bool ok_ = false;
  qp::ShardMap market_;
  qp::ShardMap::Shard* shard_ = nullptr;
  std::unique_ptr<qp::QueryMemo> memo_;
  qp::QueryMemo::Parsed scratch_;
  std::string reply_buf_;
  std::map<std::string, Samples> price_by_solver_;
};

/// The first `span_ns` of the schedule as one stream in due-time order:
/// both buyers' seeded quotes and the seller's inserts, merged.
std::vector<Request> MergedStream(const ChurnSpec& spec, uint64_t seed,
                                  uint64_t span_ns) {
  std::vector<Request> stream;
  for (int c = 0; c < kBuyers; ++c) {
    qp::Rng rng(StreamSeed(seed, c));
    for (uint64_t i = 0;; ++i) {
      Request req = ChurnQuote(&rng, spec.texts.size(), c, i);
      if (req.due_ns >= span_ns) break;
      stream.push_back(req);
    }
  }
  for (uint64_t k = 0; ChurnInsert(k).due_ns < span_ns; ++k) {
    stream.push_back(ChurnInsert(k));
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_ns < b.due_ns;
                   });
  return stream;
}

struct ReplayOut {
  std::map<std::string, Samples> price_by_solver;
  MetricsView delta;
};

/// Serves `stream` on a fresh in-process server with spans on; the
/// registry delta covers the stream alone, so its counts depend only on
/// the seed.
ReplayOut Replay(const ChurnSpec& spec, const std::vector<Request>& stream,
                 Tracer* tracer, RunResult* r) {
  ReplayOut out;
  InProcServer server(spec, r);
  if (!server.ok()) return out;
  qp::MetricsRegistry& reg = qp::MetricsRegistry::Global();
  MetricsView before = FromSnapshot(reg.Snapshot());
  // Client spans use (connection << 40) | index; replay ids sit above.
  uint64_t id = uint64_t{1} << 48;
  for (const Request& req : stream) server.Handle(req, ++id, tracer);
  out.delta = Delta(FromSnapshot(reg.Snapshot()), before);
  out.price_by_solver = server.price_by_solver();
  return out;
}

struct Merged {
  Samples quote, hot_quote, insert, insert_rtt, rtt_all, late;
  OpCounts quote_ops, insert_ops;
  uint64_t good_quotes = 0;
  uint64_t hot_post_publish = 0;
};

Merged Merge(const PhaseOutcome& ph) {
  Merged m;
  for (const auto& log : ph.logs) {
    m.quote.Append(log->quote);
    m.hot_quote.Append(log->hot_quote);
    m.insert.Append(log->insert);
    m.insert_rtt.Append(log->insert_rtt);
    m.rtt_all.Append(log->rtt_all);
    m.late.Append(log->late);
    m.quote_ops.Merge(log->quote_ops);
    m.insert_ops.Merge(log->insert_ops);
    m.good_quotes += log->good_quotes;
    m.hot_post_publish += log->hot_post_publish;
  }
  return m;
}

void BookOps(const Merged& m, RunResult* r) {
  r->ops["quote"].Merge(m.quote_ops);
  r->ops["insert"].Merge(m.insert_ops);
}

/// Per-layer metrics: daemon METRICS deltas of the traced load phase plus
/// the replay's spans and counters.
void LayerMetrics(const PhaseOutcome& traced, const Merged& tm,
                  const ReplayOut& rep, const Tracer& tracer, RunResult* r) {
  const MetricsView& d = traced.delta;
  std::map<std::string, Samples> dur = tracer.Durations();
  r->Set("server.decode_us", dur["server.decode"].Mean(), "us");
  r->Set("server.encode_us", dur["server.encode"].Mean(), "us");
  const double request_us = d.HistMean("qp.server.request_ns", 1e-3);
  r->Set("server.request_us", request_us, "us");
  r->Set("server.transport_us", tm.rtt_all.Mean() - request_us, "us");
  const double memo_hits = static_cast<double>(d.Counter("qp.server.parse_memo_hits"));
  const double memo_misses =
      static_cast<double>(d.Counter("qp.server.parse_memo_misses"));
  r->Set("server.parse_memo_hit_ratio", Ratio(memo_hits, memo_hits + memo_misses),
         "ratio");
  r->Set("query.parse_us", dur["query.parse"].Mean(), "us");
  r->Set("pool.interactive_wait_us",
         d.HistMean("qp.pool.lane_wait_ns.interactive", 1e-3), "us");
  r->Set("pool.background_wait_us",
         d.HistMean("qp.pool.lane_wait_ns.background", 1e-3), "us");
  r->Set("market.acquire_us", dur["market.acquire"].Mean(), "us");
  r->Set("market.publish_us", dur["market.publish"].Mean(), "us");
  r->Set("market.publishes_per_insert",
         Ratio(static_cast<double>(d.Counter("qp.market.snapshot_publishes")),
               static_cast<double>(traced.inserts_sent)),
         "ratio");
  r->Set("market.reclaims",
         static_cast<double>(d.Counter("qp.market.snapshot_reclaims")), "count");
  r->Set("cache.lookup_us", dur["cache.lookup"].Mean(), "us");
  const double hits = static_cast<double>(d.Counter("qp.cache.hits"));
  const double lookups = hits + static_cast<double>(d.Counter("qp.cache.misses")) +
                         static_cast<double>(d.Counter("qp.cache.invalidations"));
  r->Set("cache.hit_ratio", Ratio(hits, lookups), "ratio");
  const double warm_hits = static_cast<double>(d.Counter("qp.server.warm_hits"));
  r->Set("cache.warm_hit_ratio",
         Ratio(warm_hits, static_cast<double>(tm.hot_post_publish)), "ratio");
  r->Set("cache.warm_useful_ratio",
         Ratio(warm_hits,
               static_cast<double>(d.Counter("qp.cache.warmed_entries"))),
         "ratio");
  SetSolverLayerMetrics(rep.delta, rep.price_by_solver, r);
  r->Set("ctl.level_max", static_cast<double>(traced.ctl_level_max), "level");
  r->Set("gen.late_p99_us", tm.late.Percentile(99), "us");
  for (const auto& [name, s] : tracer.SelfTimes()) {
    r->Info("self_us." + name, s.Mean(), "us");
  }
}

}  // namespace

void RunServeChurn(const Options& o, RunResult* r) {
  qp::ShardMap market;
  qp::Status st = BuildMarket(&market);
  if (!st.ok()) return r->Fail("churn market: " + st.ToString());
  const ChurnSpec spec = MakeSpec(o.seed, market);

  double setup_s = 0;
  std::unique_ptr<Daemon> daemon = SetUp(o, spec, &setup_s, r);
  if (daemon == nullptr) return;

  // Untraced: the load phase, then the publish phase on a fresh daemon.
  // Traced: half the time untraced, then the same seeded stream on a fresh
  // daemon with client spans and the controller poller on, so the two
  // halves differ by the tracing alone.
  const double phase_s =
      o.trace ? o.seconds / 2 : o.seconds * (1 - kPublishShare);
  const uint64_t steal0 = StealTicks();
  const uint64_t cpu0 = CpuNs(daemon->pid());
  PhaseOutcome main_phase = RunLoad(spec, daemon->port(), o.seed, phase_s, false, r);
  const double daemon_cpu_us = static_cast<double>(CpuNs(daemon->pid()) - cpu0) / 1e3;
  r->Info("host.steal_pct",
          StealPercent(steal0, StealTicks(), main_phase.elapsed_s), "%");
  const double rss = PeakRssMb(daemon->pid());
  if (!daemon->Stop()) r->Fail("qpricerd did not exit cleanly");
  Merged m = Merge(main_phase);
  BookOps(m, r);
  const double cpu_us_per_request =
      Ratio(daemon_cpu_us, static_cast<double>(m.quote_ops.succeeded +
                                               m.insert_ops.succeeded));
  r->Info("daemon.cpu_s", daemon_cpu_us / 1e6, "s");
  r->Info("daemon.cpu_us_per_request", cpu_us_per_request, "us");

  PhaseOutcome traced;
  Merged tm;
  if (o.trace) {
    daemon = StartDaemon(o, spec, r);
    if (daemon == nullptr) return;
    traced = RunLoad(spec, daemon->port(), o.seed, phase_s, true, r);
    if (!daemon->Stop()) r->Fail("qpricerd did not exit cleanly");
    tm = Merge(traced);
    BookOps(tm, r);
  }

  std::vector<const ConnLog*> logs;
  for (const auto& l : main_phase.logs) logs.push_back(l.get());
  for (const auto& l : traced.logs) logs.push_back(l.get());
  Verify(spec, logs, o.seed, r);

  const double goodput =
      Ratio(static_cast<double>(m.good_quotes), main_phase.elapsed_s);
  r->Info("quote_p50_us", m.quote.Percentile(50), "us");
  r->Info("quote_p99_us", m.quote.Percentile(99), "us");
  r->Info("quote.samples", static_cast<double>(m.quote.size()), "count");
  r->Info("quote.beyond_p99", static_cast<double>(m.quote.Beyond(99)), "count");
  r->Info("quote.hot_p50_us", m.hot_quote.Percentile(50), "us");
  r->Info("quote.hot_p99_us", m.hot_quote.Percentile(99), "us");
  for (int q : {10, 25, 75, 90}) {
    r->Info("quote_p" + std::to_string(q) + "_us", m.quote.Percentile(q), "us");
  }
  r->Info("insert_p50_us", m.insert.Percentile(50), "us");
  r->Info("insert_p95_us", m.insert.Percentile(95), "us");
  r->Info("insert.rtt_p50_us", m.insert_rtt.Percentile(50), "us");
  r->Info("insert.samples", static_cast<double>(m.insert.size()), "count");
  r->Info("insert.beyond_p95", static_cast<double>(m.insert.Beyond(95)), "count");
  r->Info("goodput_qps", goodput, "1/s");
  r->Info("gen.late_p99_us", m.late.Percentile(99), "us");
  r->Info("market.publishes_per_insert",
          Ratio(static_cast<double>(
                    main_phase.delta.Counter("qp.market.snapshot_publishes")),
                static_cast<double>(main_phase.inserts_sent)),
          "ratio");
  r->Info("rss_mb", rss, "MiB");
  r->Info("setup_s", setup_s, "s");

  if (!o.trace) {
    PublishOutcome pub = RunPublishPhase(o, spec, o.seconds * kPublishShare, r);
    r->Info("publish.cpu_p50_us", pub.cpu.Percentile(50), "us");
    r->Info("publish.rtt_p50_us", pub.rtt.Percentile(50), "us");
    r->Set("setup_s", setup_s, "s");
    r->Set("rss_mb", rss, "MiB");
    r->Set("throughput_per_s", goodput, "1/s");
    r->Set("cpu_us_per_op", cpu_us_per_request, "us");
    r->Set("aux_cpu_us_per_op", pub.cpu.Percentile(50), "us");
    return;
  }
  // Latencies over loopback follow the host's stolen CPU time more than
  // the code (see the README), so they are reported here, ungated, from
  // the untraced half.
  r->Set("e2e.quote_p50_us", m.hot_quote.Percentile(50), "us");
  r->Set("e2e.quote_p99_us", m.quote.Percentile(99), "us");
  r->Set("e2e.aux_p50_us", m.insert.Percentile(50), "us");
  r->Set("e2e.aux_tail_us", m.insert.Percentile(95), "us");

  const std::vector<Request> stream = MergedStream(spec, o.seed, kReplayNs);
  Tracer tracer(true, stream.size() * 8);
  for (const auto& l : traced.logs) tracer.Merge(l->tracer);
  ReplayOut rep = Replay(spec, stream, &tracer, r);
  LayerMetrics(traced, tm, rep, tracer, r);
  r->Set("trace.overhead_us",
         tm.hot_quote.Percentile(50) - m.hot_quote.Percentile(50), "us");
  r->Info("trace.untraced_quote_p50_us", m.hot_quote.Percentile(50), "us");
  r->Info("trace.traced_quote_p50_us", tm.hot_quote.Percentile(50), "us");
  if (!tracer.WriteJsonLines(o.out_dir + "/serve_churn-seed" +
                             std::to_string(o.seed) + "-spans.jsonl")) {
    r->Fail("cannot write spans");
  }
}

}  // namespace perfbench
