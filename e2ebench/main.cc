// End-to-end wall-clock benchmark of the rqp engine.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload: it builds the seeded tables (set-up), then
// issues whole rounds of operations in a closed loop with one client until
// the timed operations add up to --seconds. Every answer is checked against
// the reference evaluator outside the timed window. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// records spans around the calls into each module and reports the per-layer
// split instead (README.md lists every metric). Spans are written to
// .bench_build/traces/ when the run ends.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "reference.h"
#include "storage/data_generator.h"
#include "trace.h"
#include "workload/workloads.h"
#include "workloads.h"

namespace e2ebench {
namespace {

/// Everything a run writes (spans, spill files) goes under this directory
/// of the checkout, which also holds the build.
constexpr char kOutDir[] = ".bench_build";
/// A p95 needs at least ten samples beyond it.
constexpr int64_t kMinQueries = 200;
/// The timed loop stops here even when it has not reached --seconds, so a
/// run ends well inside its time limit on a slow machine.
constexpr double kLoopWallCapS = 120;
/// Distinct parameter sets per analytic template; rounds cycle through them.
constexpr int kPoolSize = 16;
/// pop_robust: queries per round (every one distinct), of which traps.
constexpr int kPopRoundQueries = 20;
constexpr int kPopRoundTraps = 6;
/// Traced runs of the other workloads: pop_robust rounds run after the
/// main loop for the optimizer metrics (half of them traced).
constexpr int kPopProbeRounds = 10;
/// ingest_refresh: a round is kIngestJoins groups of kIngestCycles dashboard
/// cycles, each cycle after an appended batch of rows and each group
/// followed by one recomputed join panel; then one ANALYZE.
constexpr int kIngestJoins = 4;
constexpr int kIngestCycles = 8;
constexpr int64_t kIngestBatchRows = 500;
/// Dashboard panel indexes (ingest_refresh's templates, and the cache probe).
constexpr int kTotalPanel = 0;
constexpr int kScanFilterPanel = 1;
constexpr int kFk2Panel = 2;
constexpr int kStarJoinPanel = 3;
constexpr int kJoinGroupbyPanel = 4;
/// Traced run: allowed gap between the p50 of the traced per-query split
/// (plan + exec) and the untraced p50 of the same template and cache
/// outcome.
constexpr double kSplitAgreementBound = 0.25;
constexpr double kSplitAgreementSlackMs = 0.1;
/// Relative gap allowed between a query's simulated cost at DOP 1 and at
/// DOP N (see Verify).
constexpr double kCostInvarianceTolerance = 1e-5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && have_trace;
}

/// Linear interpolation between closest ranks; 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

enum class CacheOutcome { kNone, kMiss, kFresh, kPatched };

/// Suffix of a query's label in the timed-window breakdown.
const char* OutcomeName(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::kNone: return "";
    case CacheOutcome::kMiss: return "/miss";
    case CacheOutcome::kFresh: return "/fresh_hit";
    case CacheOutcome::kPatched: return "/patched_hit";
  }
  return "";
}

/// One executed query.
struct Record {
  int tmpl = 0;         ///< index into Bench::templates_
  bool traced = false;  ///< ran in a traced round (Plan timed separately)
  int dop = 1;
  double plan_ms = 0;   ///< traced rounds only
  double run_ms = 0;    ///< Engine::Run wall time
  double cost = 0;
  double elapsed = 0;
  int reopts = 0;
  int64_t plans_considered = 0;
  int64_t rows_processed = 0;
  int64_t rows_materialized = 0;
  int64_t morsels = 0;
  CacheOutcome cache = CacheOutcome::kNone;

  double exec_ms() const { return run_ms - plan_ms; }
};

/// One operation of a round.
struct Op {
  enum Type { kQuery, kAppend, kAnalyze };
  Type type = kQuery;
  int tmpl = 0;
  std::string key;  ///< names the query text, for answer memoization
  rqp::QuerySpec spec;
};

class Bench {
 public:
  Bench(const Args& args, WorkloadConfig config, int dop4, Tracer* tracer)
      : args_(args), config_(std::move(config)), tracer_(tracer),
        reference_(&catalog_), rng_(args.seed * 0x9E3779B97F4A7C15ULL + 1),
        dop4_(dop4) {}

  /// Data generation, index builds, engine construction and the first
  /// ANALYZE.
  void Setup();
  /// The timed closed loop: whole rounds until --seconds of timed work, or
  /// exactly `rounds` rounds when `rounds` > 0.
  void RunLoop(int64_t process_start_ns, int rounds = 0);
  /// Traced runs only: the DOP-1 vs DOP-N template probe, and the
  /// append/cache probe on workloads whose own loop does not use the cache.
  void RunProbes();
  /// Traced runs only: the per-template split agreement check.
  void CheckSplitAgreement();

  void AddEndToEndMetrics(double setup_s, std::map<std::string, double>* m);
  void AddPerLayerMetrics(std::map<std::string, double>* m);
  /// The optimizer metrics alone, from this run's main loop: plan time,
  /// plans considered, q-error and POP re-optimizations.
  void AddOptimizerMetrics(std::map<std::string, double>* m) const;
  /// Prints to stderr each operation's share of the untraced timed window.
  void PrintWindowShares() const;

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  bool is_olap() const {
    return config_.kind == Kind::kOlapStar ||
           config_.kind == Kind::kOlapStarDop4;
  }
  std::vector<Op> MakeRound(int round);
  /// Runs one query and checks its answer; appends to `records`.
  void ExecuteQuery(const Op& op, bool traced, rqp::Engine* engine,
                    std::vector<Record>* records, int64_t* timed_ns);
  void AppendRows(int64_t n, Tracer* tracer, int64_t* timed_ns);
  void Verify(const Op& op, const rqp::QueryResult& result, int dop);
  /// Total work is DOP-invariant: a query's simulated cost at DOP `dop`
  /// must equal its cost at DOP 1.
  void CheckCostInvariance(const std::string& key, double serial_cost,
                           double parallel_cost, int dop);
  void Fail(const std::string& what);
  /// Share of the untraced timed window spent in operations whose label is
  /// `kind` or ends in `kind`.
  double WindowShare(const std::string& kind) const;

  Args args_;
  WorkloadConfig config_;
  Tracer* tracer_;
  Tracer untraced_{false};
  rqp::Catalog catalog_;
  rqp::Table* fact_ = nullptr;
  std::unique_ptr<rqp::Engine> engine_;
  ReferenceEvaluator reference_;
  rqp::Rng rng_;
  int dop4_;  ///< the parallel DOP: min(4, nproc)
  std::vector<std::string> templates_;
  /// Analytic templates: kPoolSize parameter sets each.
  std::vector<std::vector<rqp::QuerySpec>> pool_;
  std::vector<int> pool_cursor_;
  /// ingest_refresh's repeating dashboard panels.
  std::vector<rqp::QuerySpec> panels_;

  // Answer checking: digests of the answers already checked, by query.
  std::map<std::string, AnswerDigest> ref_memo_;
  int64_t ref_memo_rows_ = -1;
  std::map<std::string, std::pair<AnswerDigest, double>> dop1_memo_;
  bool self_tested_ = false;
  int64_t generated_rows_ = 0;
  int64_t appended_rows_ = 0;

  // Outcomes.
  bool correct_ = true;
  int messages_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t next_query_id_ = 0;
  int64_t window_ns_ = 0;
  int64_t window_queries_ = 0;
  /// Untraced rounds' timed nanoseconds by operation label: "append",
  /// "analyze", or the template name plus the cache outcome.
  std::map<std::string, int64_t> window_by_op_;
  int64_t verify_ns_ = 0;
  std::vector<Record> records_;        ///< main loop
  std::vector<Record> probe_records_;  ///< template probe (traced)
  std::vector<Record> cache_records_;  ///< cache probe (traced)
  std::vector<double> q_errors_;
  std::vector<double> analyze_ms_;
  double generate_ms_ = 0;
  double index_build_ms_ = 0;
  int64_t append_ns_ = 0;
  rqp::ResultCache::Stats cache_delta_;
};

void Bench::Fail(const std::string& what) {
  correct_ = false;
  if (++messages_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Bench::Setup() {
  ScopedSpan setup(tracer_, "setup", -1);
  int64_t t0 = NowNs();
  {
    ScopedSpan s(tracer_, "storage.generate", -1, setup.index());
    fact_ = rqp::BuildStarSchema(&catalog_, config_.star);
  }
  int64_t t1 = NowNs();
  generate_ms_ = static_cast<double>(t1 - t0) / 1e6;
  generated_rows_ = fact_->num_rows();
  {
    ScopedSpan s(tracer_, "storage.index_build", -1, setup.index());
    auto index = [&](const std::string& table, const std::string& column) {
      auto built = catalog_.BuildIndex(table, column);
      if (!built.ok()) Fail("index build: " + built.status().ToString());
    };
    for (int d = 0; d < config_.star.num_dimensions; ++d) {
      index("dim" + std::to_string(d), "id");
    }
    if (config_.index_fact_fk0) index("fact", "fk0");
  }
  t0 = NowNs();
  index_build_ms_ = static_cast<double>(t0 - t1) / 1e6;
  engine_ = std::make_unique<rqp::Engine>(&catalog_, config_.engine);
  t1 = NowNs();
  {
    ScopedSpan s(tracer_, "stats.analyze", -1, setup.index());
    engine_->AnalyzeAll();
  }
  analyze_ms_.push_back(static_cast<double>(NowNs() - t1) / 1e6);
}

std::vector<Op> Bench::MakeRound(int round) {
  // The olap round: one query of each fast template and two of each slow
  // one. The p50 then lies inside a latency band, not in the gap between
  // two where it would jump from run to run: mid join_groupby band at
  // DOP N, and a quarter into the joint join_groupby/derived_groupby band
  // at DOP 1, where the two overlap. It is kept out of the star_join band,
  // which moves most under contention for the CPUs at DOP N.
  static const int kOlapMix[] = {kScanFilter,     kStarJoin,
                                 kJoinGroupby,    kJoinGroupby,
                                 kDerivedGroupby, kDerivedGroupby};
  std::vector<Op> ops;
  auto query = [&](int tmpl, std::string key, rqp::QuerySpec spec) {
    Op op;
    op.tmpl = tmpl;
    op.key = std::move(key);
    op.spec = std::move(spec);
    ops.push_back(std::move(op));
  };
  switch (config_.kind) {
    case Kind::kOlapStar:
    case Kind::kOlapStarDop4:
      for (int tmpl : kOlapMix) {
        const int i = pool_cursor_[static_cast<size_t>(tmpl)]++ % kPoolSize;
        query(tmpl, templates_[static_cast<size_t>(tmpl)] + "/" +
                        std::to_string(i),
              pool_[static_cast<size_t>(tmpl)][static_cast<size_t>(i)]);
      }
      break;
    case Kind::kPopRobust: {
      // PopWorkload's queries with an exact 30% trap share per round:
      // trap_fraction 1 draws only traps, 0 only plain random stars.
      const int d = config_.star.num_dimensions;
      const int64_t rows = config_.star.dim_rows;
      auto plain = rqp::workload::PopWorkload(
          &rng_, kPopRoundQueries - kPopRoundTraps, 0.0, d, rows);
      auto traps =
          rqp::workload::PopWorkload(&rng_, kPopRoundTraps, 1.0, d, rows);
      size_t next_plain = 0, next_trap = 0;
      for (int i = 0; i < kPopRoundQueries; ++i) {
        const bool trap = i % 10 == 1 || i % 10 == 4 || i % 10 == 7;
        query(trap ? 1 : 0,
              "pop/" + std::to_string(round) + "/" + std::to_string(i),
              trap ? traps[next_trap++] : plain[next_plain++]);
      }
      break;
    }
    case Kind::kIngestRefresh: {
      // Joins are not patchable, so each join panel is recomputed. One per
      // group keeps the joins near 2% of the queries, so the p95 is that of
      // the patched hits rather than a point between the two bands.
      for (int j = 0; j < kIngestJoins; ++j) {
        const int join = j % 2 == 0 ? kStarJoinPanel : kJoinGroupbyPanel;
        for (int cycle = 0; cycle < kIngestCycles; ++cycle) {
          Op append;
          append.type = Op::kAppend;
          ops.push_back(append);
          // One viewer reads every single-table panel (patched hits), then
          // three more read the per-fk2 totals (fresh hits). With two
          // single-row panels below and one patched hit above, the p50 is
          // a third into the band of the fresh hits.
          for (int p : {kTotalPanel, kScanFilterPanel, kFk2Panel, kFk2Panel,
                        kFk2Panel, kFk2Panel}) {
            query(p, templates_[static_cast<size_t>(p)],
                  panels_[static_cast<size_t>(p)]);
          }
        }
        query(join, templates_[static_cast<size_t>(join)],
              panels_[static_cast<size_t>(join)]);
      }
      Op analyze;
      analyze.type = Op::kAnalyze;
      ops.push_back(analyze);
      break;
    }
  }
  return ops;
}

void Bench::Verify(const Op& op, const rqp::QueryResult& result, int dop) {
  const Answer got = CanonicalAnswer(result.rows, IsAggregate(op.spec));
  if (static_cast<int64_t>(got.num_rows()) != result.output_rows) {
    Fail(op.key + ": output_rows disagrees with the returned rows");
  }
  const AnswerDigest got_digest = Digest(got);
  // The only table that changes is fact, and only by appends.
  if (fact_->num_rows() != ref_memo_rows_) {
    ref_memo_.clear();
    ref_memo_rows_ = fact_->num_rows();
  }
  auto memo = ref_memo_.find(op.key);
  if (memo == ref_memo_.end()) {
    auto want = reference_.Evaluate(op.spec);
    if (!want.ok()) {
      Fail("reference evaluator: " + want.status().ToString());
      return;
    }
    if (!self_tested_ && want->num_rows() >= 2) {
      // The checker must reject a wrong answer, shown on a real one.
      self_tested_ = true;
      const std::string err = CheckerSelfTest(*want);
      if (!err.empty()) Fail("checker self-test: " + err);
    }
    memo = ref_memo_.emplace(op.key, Digest(*want)).first;
  }
  if (!(memo->second == got_digest)) {
    // Only the digest was kept: evaluate again to say what differs.
    auto want = reference_.Evaluate(op.spec);
    const std::string diff =
        want.ok() ? DiffAnswers(*want, got) : want.status().ToString();
    Fail(op.key + ": " + (diff.empty() ? "answer digest differs" : diff));
  }
  // pop_robust's queries never repeat: keep no answers around.
  if (config_.kind == Kind::kPopRobust) ref_memo_.erase(op.key);
  if (config_.kind == Kind::kIngestRefresh && op.spec.joins.empty() &&
      op.spec.group_by.empty() && op.spec.tables[0].predicate == nullptr) {
    // COUNT(*) over fact: the rows generated plus the rows appended, as
    // counted here rather than by the engine or the evaluator.
    const int64_t expected = generated_rows_ + appended_rows_;
    if (got.num_rows() != 1 || got.row(0)[0] != expected) {
      Fail("COUNT(*) over fact is not " + std::to_string(expected));
    }
  }
  if (config_.kind == Kind::kOlapStarDop4 && dop > 1) {
    // Total work is DOP-invariant: same answer and same simulated cost as
    // the serial run of the same query.
    auto it = dop1_memo_.find(op.key);
    if (it == dop1_memo_.end()) {
      engine_->mutable_options()->num_threads = 1;
      auto serial = engine_->Run(op.spec, /*keep_rows=*/true);
      engine_->mutable_options()->num_threads = dop4_;
      if (!serial.ok()) {
        Fail(op.key + " at DOP 1: " + serial.status().ToString());
        return;
      }
      it = dop1_memo_
               .emplace(op.key,
                        std::make_pair(Digest(CanonicalAnswer(
                                           serial->rows, IsAggregate(op.spec))),
                                       serial->cost))
               .first;
    }
    if (!(it->second.first == got_digest)) {
      Fail(op.key + ": DOP " + std::to_string(dop) +
           " answer differs from DOP 1");
    }
    CheckCostInvariance(op.key, it->second.second, result.cost, dop);
  }
}

void Bench::CheckCostInvariance(const std::string& key, double serial_cost,
                                double parallel_cost, int dop) {
  // Not bit-exact: HashJoinOp truncates its build-factor hash-op charge
  // per partition and GatherOp once per build, so a parallel join can
  // charge a few hash ops (4e-3 units each) more than the serial one.
  if (std::fabs(serial_cost - parallel_cost) >
      kCostInvarianceTolerance * serial_cost) {
    Fail(key + ": DOP " + std::to_string(dop) + " cost " +
         std::to_string(parallel_cost) + " differs from DOP 1 cost " +
         std::to_string(serial_cost));
  }
}

void Bench::ExecuteQuery(const Op& op, bool traced, rqp::Engine* engine,
                         std::vector<Record>* records, int64_t* timed_ns) {
  ++attempted_;
  Record rec;
  rec.tmpl = op.tmpl;
  rec.traced = traced;
  rec.dop = engine->options().num_threads;
  rqp::ResultCache* cache =
      engine->result_cache_enabled() ? engine->result_cache() : nullptr;
  const rqp::ResultCache::Stats before =
      cache != nullptr ? cache->stats() : rqp::ResultCache::Stats();

  // Untraced rounds record no spans at all.
  Tracer* tracer = traced ? tracer_ : &untraced_;
  const int64_t qid = next_query_id_++;
  rqp::StatusOr<rqp::QueryResult> result = rqp::Status::Internal("not run");
  {
    ScopedSpan root(tracer, "query", qid);
    bool planned = true;
    if (traced) {
      ScopedSpan s(tracer, "optimizer.plan", qid, root.index());
      const int64_t t0 = NowNs();
      auto plan = engine->Plan(op.spec);
      rec.plan_ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!plan.ok()) {
        result = plan.status();
        planned = false;
      }
    }
    if (planned) {
      ScopedSpan s(tracer, "engine.run", qid, root.index());
      const int64_t t0 = NowNs();
      result = engine->Run(op.spec, /*keep_rows=*/true);
      rec.run_ms = static_cast<double>(NowNs() - t0) / 1e6;
    }
  }
  if (timed_ns != nullptr) {
    *timed_ns += static_cast<int64_t>((rec.plan_ms + rec.run_ms) * 1e6);
  }
  if (!result.ok()) {
    ++failed_;
    if (++messages_ <= 20) {
      std::fprintf(stderr, "query %s failed: %s\n", op.key.c_str(),
                   result.status().ToString().c_str());
    }
    return;
  }
  rec.cost = result->cost;
  rec.elapsed = result->elapsed;
  rec.reopts = result->reoptimizations;
  rec.plans_considered = result->plans_considered;
  rec.rows_processed = result->counters.rows_processed;
  rec.rows_materialized = result->counters.rows_materialized;
  rec.morsels = result->counters.morsels;
  if (cache != nullptr) {
    const rqp::ResultCache::Stats after = cache->stats();
    if (after.patched_hits > before.patched_hits) {
      rec.cache = CacheOutcome::kPatched;
    } else if (after.hits > before.hits) {
      rec.cache = CacheOutcome::kFresh;
    } else {
      rec.cache = CacheOutcome::kMiss;
    }
  }
  if (records == &records_) {
    for (const auto& nc : result->node_cards) {
      const double est = std::max(nc.estimated, 1.0);
      const double act = std::max(static_cast<double>(nc.actual), 1.0);
      q_errors_.push_back(std::max(est / act, act / est));
    }
  }
  records->push_back(rec);
  const int64_t t0 = NowNs();
  Verify(op, *result, rec.dop);
  verify_ns_ += NowNs() - t0;
}

void Bench::AppendRows(int64_t n, Tracer* tracer, int64_t* timed_ns) {
  const auto rows = MakeFactRows(&rng_, n, config_.star);
  ScopedSpan s(tracer, "storage.append", -1);
  const int64_t t0 = NowNs();
  for (const auto& row : rows) fact_->AppendRow(row);
  const int64_t ns = NowNs() - t0;
  appended_rows_ += n;
  append_ns_ += ns;
  if (timed_ns != nullptr) *timed_ns += ns;
}

void Bench::RunLoop(int64_t process_start_ns, int rounds) {
  // Template pools, drawn from the seed before any query runs.
  rqp::Rng pool_rng(args_.seed ^ 0xA5A5A5A5ULL);
  pool_.resize(kNumTemplates);
  pool_cursor_.assign(kNumTemplates, 0);
  for (int t = 0; t < kNumTemplates; ++t) {
    for (int i = 0; i < kPoolSize; ++i) {
      pool_[static_cast<size_t>(t)].push_back(
          MakeTemplateQuery(t, &pool_rng, config_.star));
    }
  }
  switch (config_.kind) {
    case Kind::kOlapStar:
    case Kind::kOlapStarDop4:
      for (int t = 0; t < kNumTemplates; ++t) {
        templates_.push_back(TemplateName(t));
      }
      break;
    case Kind::kPopRobust:
      templates_ = {"pop_plain", "pop_trap"};
      break;
    case Kind::kIngestRefresh:
      // The k*Panel constants index these.
      templates_ = {"total", "scan_filter", "fk2_groupby", "star_join",
                    "join_groupby"};
      panels_ = {TotalRowsQuery(), pool_[kScanFilter][0], Fk2GroupbyQuery(),
                 pool_[kStarJoin][0], pool_[kJoinGroupby][0]};
      break;
  }

  rqp::ResultCache* cache = engine_->result_cache_enabled()
                                ? engine_->result_cache()
                                : nullptr;
  const rqp::ResultCache::Stats cache_before =
      cache != nullptr ? cache->stats() : rqp::ResultCache::Stats();
  const int64_t target_ns = static_cast<int64_t>(args_.seconds * 1e9);
  for (int round = 0;; ++round) {
    // A traced run alternates traced and untraced rounds, so both see the
    // same data and the difference is the tracing overhead.
    const bool traced = tracer_->enabled() && round % 2 == 0;
    Tracer* tracer = traced ? tracer_ : &untraced_;
    for (const Op& op : MakeRound(round)) {
      const int64_t window_before = window_ns_;
      std::string label;
      switch (op.type) {
        case Op::kQuery: {
          const size_t done = records_.size();
          ExecuteQuery(op, traced, engine_.get(), &records_, &window_ns_);
          ++window_queries_;
          label = templates_[static_cast<size_t>(op.tmpl)];
          if (records_.size() > done) {
            label += OutcomeName(records_.back().cache);
          }
          break;
        }
        case Op::kAppend:
          ++attempted_;
          AppendRows(kIngestBatchRows, tracer, &window_ns_);
          label = "append";
          break;
        case Op::kAnalyze: {
          ++attempted_;
          ScopedSpan s(tracer, "stats.analyze", -1);
          const int64_t t0 = NowNs();
          engine_->AnalyzeAll();
          const int64_t ns = NowNs() - t0;
          window_ns_ += ns;
          analyze_ms_.push_back(static_cast<double>(ns) / 1e6);
          label = "analyze";
          break;
        }
      }
      if (!traced) window_by_op_[label] += window_ns_ - window_before;
    }
    if (rounds > 0) {
      if (round + 1 == rounds) break;
      continue;
    }
    if (window_ns_ >= target_ns && window_queries_ >= kMinQueries) break;
    if (static_cast<double>(NowNs() - process_start_ns) / 1e9 > kLoopWallCapS) {
      std::fprintf(stderr, "loop stopped at the %.0f s wall cap\n",
                   kLoopWallCapS);
      break;
    }
  }
  if (cache != nullptr) {
    const rqp::ResultCache::Stats after = cache->stats();
    cache_delta_.hits = after.hits - cache_before.hits;
    cache_delta_.misses = after.misses - cache_before.misses;
  }
}

void Bench::RunProbes() {
  // Template probe: each analytic template at DOP 1 and DOP N on this
  // workload's catalog, through an engine with every feature off.
  std::unique_ptr<rqp::Engine> plain;
  rqp::Engine* engine = engine_.get();
  if (!is_olap()) {
    plain = std::make_unique<rqp::Engine>(
        &catalog_, PlainEngineOptions(1, config_.engine.spill_dir));
    ScopedSpan s(tracer_, "probe.analyze", -1);
    plain->AnalyzeAll();
    engine = plain.get();
  }
  const int saved_dop = engine->options().num_threads;
  constexpr int kProbeEntries = 4, kProbeReps = 2;
  for (int t = 0; t < kNumTemplates; ++t) {
    for (int i = 0; i < kProbeEntries; ++i) {
      Op op;
      op.tmpl = t;
      op.key = std::string(TemplateName(t)) + "/" + std::to_string(i);
      op.spec = pool_[static_cast<size_t>(t)][static_cast<size_t>(i)];
      for (int rep = 0; rep < kProbeReps; ++rep) {
        const size_t done = probe_records_.size();
        for (int dop : {1, dop4_}) {
          engine->mutable_options()->num_threads = dop;
          ExecuteQuery(op, /*traced=*/true, engine, &probe_records_, nullptr);
        }
        // Answers at both DOPs were checked against the reference.
        if (probe_records_.size() == done + 2) {
          CheckCostInvariance("probe/" + op.key, probe_records_[done].cost,
                              probe_records_[done + 1].cost, dop4_);
        }
      }
    }
  }
  engine->mutable_options()->num_threads = saved_dop;

  if (config_.kind == Kind::kIngestRefresh) return;
  // Append/cache probe: single-table aggregates through a result cache,
  // missed, then served fresh, then patched after each appended batch.
  rqp::EngineOptions opts = PlainEngineOptions(1, config_.engine.spill_dir);
  opts.use_result_cache = 1;
  rqp::Engine cached(&catalog_, opts);
  rqp::ResultCache* cache = cached.result_cache();
  const rqp::ResultCache::Stats before = cache->stats();
  std::vector<Op> panels(2);
  panels[0].tmpl = kScanFilterPanel;
  panels[0].key = "cache/scan_filter";
  panels[0].spec = pool_[kScanFilter][0];
  panels[1].tmpl = kFk2Panel;
  panels[1].key = "cache/fk2_groupby";
  panels[1].spec = Fk2GroupbyQuery();
  constexpr int kCacheRounds = 6;
  for (int r = 0; r < kCacheRounds; ++r) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const Op& op : panels) {
        ExecuteQuery(op, /*traced=*/true, &cached, &cache_records_, nullptr);
      }
    }
    AppendRows(1000, tracer_, nullptr);
  }
  const rqp::ResultCache::Stats after = cache->stats();
  cache_delta_.hits = after.hits - before.hits;
  cache_delta_.misses = after.misses - before.misses;
}

double Bench::WindowShare(const std::string& kind) const {
  int64_t total = 0, match = 0;
  for (const auto& [label, ns] : window_by_op_) {
    total += ns;
    if (label.size() >= kind.size() &&
        label.compare(label.size() - kind.size(), kind.size(), kind) == 0) {
      match += ns;
    }
  }
  return total > 0 ? static_cast<double>(match) / static_cast<double>(total)
                   : 0;
}

void Bench::PrintWindowShares() const {
  std::fprintf(stderr, "untraced timed window by operation:\n");
  for (const auto& [label, ns] : window_by_op_) {
    std::fprintf(stderr, "  %-28s %6.2f%%  %9.3f ms\n", label.c_str(),
                 100.0 * WindowShare(label), static_cast<double>(ns) / 1e6);
  }
}

void Bench::CheckSplitAgreement() {
  // Per template and cache outcome: a cached panel's fresh and patched hits
  // are two latency bands, and a p50 over both would fall between them.
  std::map<std::string, std::vector<const Record*>> by_label;
  for (const Record& r : records_) {
    by_label[templates_[static_cast<size_t>(r.tmpl)] + OutcomeName(r.cache)]
        .push_back(&r);
  }
  for (const auto& [label, records] : by_label) {
    std::vector<double> plan, exec, traced, untraced;
    for (const Record* r : records) {
      if (r->traced) {
        plan.push_back(r->plan_ms);
        exec.push_back(r->exec_ms());
        traced.push_back(r->plan_ms + r->exec_ms());
      } else {
        untraced.push_back(r->run_ms);
      }
    }
    if (traced.empty() || untraced.empty()) continue;
    // The p50 of each query's plan + exec: a sum of the two p50s would
    // drift from it when the template mixes short and long plans.
    const double split = Percentile(traced, 0.5);
    const double base = Percentile(untraced, 0.5);
    std::fprintf(stderr,
                 "split %-24s plan %.3f + exec %.3f ms (p50s), plan+exec "
                 "%.3f ms, untraced %.3f ms\n",
                 label.c_str(), Percentile(plan, 0.5), Percentile(exec, 0.5),
                 split, base);
    if (std::fabs(split - base) >
        kSplitAgreementBound * base + kSplitAgreementSlackMs) {
      Fail("traced split of " + label + " (" + std::to_string(split) +
           " ms) disagrees with the untraced p50 (" + std::to_string(base) +
           " ms)");
    }
  }
}

void Bench::AddEndToEndMetrics(double setup_s,
                               std::map<std::string, double>* m) {
  std::vector<double> latency;
  for (const Record& r : records_) latency.push_back(r.run_ms);
  (*m)["setup_s"] = setup_s;
  (*m)["query_p50_ms"] = Percentile(latency, 0.50);
  (*m)["query_p95_ms"] = Percentile(latency, 0.95);
  (*m)["queries_per_s"] = static_cast<double>(window_queries_) /
                          (static_cast<double>(window_ns_) / 1e9);
  (*m)["peak_rss_mb"] = PeakRssMb();
  std::fprintf(stderr, "%lld queries, %.3f s timed, %.3f s checking\n",
               static_cast<long long>(latency.size()),
               static_cast<double>(window_ns_) / 1e9,
               static_cast<double>(verify_ns_) / 1e9);
  for (size_t t = 0; t < templates_.size(); ++t) {
    std::vector<double> v;
    double cost = 0;
    for (const Record& r : records_) {
      if (r.tmpl != static_cast<int>(t)) continue;
      v.push_back(r.run_ms);
      cost += r.cost;
    }
    std::fprintf(stderr, "  %-16s n=%-5zu p50 %8.3f ms  p95 %8.3f ms  "
                 "mean cost %.0f\n", templates_[t].c_str(), v.size(),
                 Percentile(v, 0.5), Percentile(v, 0.95),
                 v.empty() ? 0.0 : cost / static_cast<double>(v.size()));
  }
}

void Bench::AddOptimizerMetrics(std::map<std::string, double>* m) const {
  std::vector<double> plan, reopts, plans;
  for (const Record& r : records_) {
    reopts.push_back(r.reopts);
    plans.push_back(static_cast<double>(r.plans_considered));
    if (r.traced) plan.push_back(r.plan_ms);
  }
  auto& out = *m;
  out["optimizer.plan_ms_p50"] = Percentile(plan, 0.5);
  out["optimizer.plans_considered"] = Mean(plans);
  out["optimizer.q_error_p95"] = Percentile(q_errors_, 0.95);
  out["engine.reoptimizations_per_query"] = Mean(reopts);
}

void Bench::AddPerLayerMetrics(std::map<std::string, double>* m) {
  auto& out = *m;
  out["storage.generate_ms"] = generate_ms_;
  out["storage.index_build_ms"] = index_build_ms_;
  out["storage.append_ms_per_1k_rows"] =
      static_cast<double>(append_ns_) / 1e6 * 1000.0 /
      static_cast<double>(std::max<int64_t>(appended_rows_, 1));
  out["stats.analyze_ms"] = Percentile(analyze_ms_, 0.5);

  AddOptimizerMetrics(m);
  std::vector<double> exec, traced_wall, untraced_wall, cost, materialized;
  double rows = 0, exec_s = 0, plan_s = 0;
  for (const Record& r : records_) {
    cost.push_back(r.cost);
    materialized.push_back(static_cast<double>(r.rows_materialized));
    if (!r.traced) {
      untraced_wall.push_back(r.run_ms);
      continue;
    }
    exec.push_back(r.exec_ms());
    traced_wall.push_back(r.plan_ms + r.run_ms);
    rows += static_cast<double>(r.rows_processed);
    exec_s += r.exec_ms() / 1e3;
    plan_s += r.plan_ms / 1e3;
  }
  out["optimizer.plan_share"] =
      plan_s + exec_s > 0 ? plan_s / (plan_s + exec_s) : 0;
  out["engine.exec_ms_p50"] = Percentile(exec, 0.5);
  out["engine.sim_cost_per_query"] = Mean(cost);
  out["exec.rows_per_s"] = exec_s > 0 ? rows / exec_s : 0;
  out["exec.rows_materialized_per_query"] = Mean(materialized);
  out["trace.overhead_ms_p50"] =
      Percentile(traced_wall, 0.5) - Percentile(untraced_wall, 0.5);

  // Per analytic template: the main loop's traced queries on the olap
  // workloads, else the probe's DOP-1 runs.
  double ns_min = 0, ns_max = 0;
  for (int t = 0; t < kNumTemplates; ++t) {
    std::vector<double> t_exec, t_ns, wall1, wall4, sim_speedup, morsels;
    for (const Record& r : is_olap() ? records_ : probe_records_) {
      if (r.tmpl != t || !r.traced || (!is_olap() && r.dop != 1)) continue;
      t_exec.push_back(r.exec_ms());
      t_ns.push_back(r.run_ms * 1e6 / std::max(r.cost, 1.0));
    }
    for (const Record& r : probe_records_) {
      if (r.tmpl != t) continue;
      if (r.dop == 1) {
        wall1.push_back(r.run_ms);
      } else {
        wall4.push_back(r.run_ms);
        sim_speedup.push_back(r.cost / std::max(r.elapsed, 1e-9));
      }
    }
    const std::string name = TemplateName(t);
    const double ns = Percentile(t_ns, 0.5);
    out["exec." + name + "_ms_p50"] = Percentile(t_exec, 0.5);
    out["engine.ns_per_cost_unit." + name] = ns;
    out["parallel.wall_speedup." + name] =
        Percentile(wall1, 0.5) / std::max(Percentile(wall4, 0.5), 1e-9);
    out["parallel.sim_speedup." + name] = Mean(sim_speedup);
    ns_min = t == 0 ? ns : std::min(ns_min, ns);
    ns_max = t == 0 ? ns : std::max(ns_max, ns);
  }
  out["engine.ns_per_unit_spread"] = ns_max / std::max(ns_min, 1e-9);
  std::vector<double> morsels;
  for (const Record& r : probe_records_) {
    if (r.dop > 1) morsels.push_back(static_cast<double>(r.morsels));
  }
  out["parallel.morsels_per_query"] = Mean(morsels);

  // Cache: ingest_refresh's own loop, else the cache probe. Hit latencies
  // are the fk2_groupby panel's: its entry has one group per dim2 row, so
  // the cost of serving and patching it shows; single-row entries are
  // served in microseconds either way.
  const std::vector<Record>& cached =
      config_.kind == Kind::kIngestRefresh ? records_ : cache_records_;
  std::vector<double> patched, fresh, miss;
  for (const Record& r : cached) {
    const bool fk2 = r.tmpl == kFk2Panel;
    if (fk2 && r.cache == CacheOutcome::kPatched) patched.push_back(r.run_ms);
    if (fk2 && r.cache == CacheOutcome::kFresh) fresh.push_back(r.run_ms);
    if (r.cache == CacheOutcome::kMiss) miss.push_back(r.run_ms);
  }
  const int64_t lookups = cache_delta_.hits + cache_delta_.misses;
  out["cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(cache_delta_.hits) /
                        static_cast<double>(lookups)
                  : 0;
  out["cache.patched_hit_ms_p50"] = Percentile(patched, 0.5);
  out["cache.fresh_hit_ms_p50"] = Percentile(fresh, 0.5);
  out["cache.miss_ms_p50"] = Percentile(miss, 0.5);

  // The loop's own timed window (untraced rounds), by operation type.
  out["window.append_share"] = WindowShare("append");
  out["window.analyze_share"] = WindowShare("analyze");
  out["window.patched_hit_share"] = WindowShare("/patched_hit");
  out["window.fresh_hit_share"] = WindowShare("/fresh_hit");
  out["window.miss_share"] = WindowShare("/miss");
}

/// Unit of each reported metric.
std::string UnitOf(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name == "setup_s") return "s";
  if (name == "queries_per_s") return "1/s";
  if (name == "peak_rss_mb") return "MB";
  if (name == "exec.rows_per_s") return "rows/s";
  if (name == "storage.append_ms_per_1k_rows") return "ms/1k_rows";
  if (name.find("ns_per_cost_unit") != std::string::npos) return "ns/unit";
  if (name == "engine.sim_cost_per_query") return "units";
  if (ends_with("_ms") || ends_with("_ms_p50") || ends_with("_ms_p95")) {
    return "ms";
  }
  if (name.find("speedup") != std::string::npos ||
      name.find("share") != std::string::npos ||
      name.find("spread") != std::string::npos ||
      name.find("ratio") != std::string::npos ||
      name.find("q_error") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, double>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(value) ? value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + UnitOf(name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  const int64_t process_start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  // nproc: the CPUs this process may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const int dop4 = std::max(1, std::min(4, nproc));
  const std::string spill_dir =
      (std::filesystem::absolute(kOutDir) / "spill").string();
  WorkloadConfig config;
  if (!MakeWorkload(args.workload, args.seed, dop4, spill_dir, &config)) {
    std::string known;
    for (const std::string& name : WorkloadNames()) known += " " + name;
    std::fprintf(stderr, "unknown workload %s; known:%s\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }

  const Kind kind = config.kind;
  Tracer tracer(args.trace);
  Bench bench(args, std::move(config), dop4, &tracer);
  bench.Setup();
  const double setup_s =
      static_cast<double>(NowNs() - process_start_ns) / 1e9;
  bench.RunLoop(process_start_ns);

  bench.PrintWindowShares();
  std::map<std::string, double> metrics;
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  auto write_spans = [&](const Tracer& t, const std::string& suffix) {
    const std::filesystem::path dir =
        std::filesystem::path(kOutDir) / "traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (args.workload + "-seed" +
                                     std::to_string(args.seed) + suffix +
                                     ".jsonl"))
                                 .string();
    if (!t.WriteJsonLines(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    }
  };
  if (args.trace) {
    bench.CheckSplitAgreement();
    bench.RunProbes();
    bench.AddPerLayerMetrics(&metrics);
    write_spans(tracer, "");
    if (kind != Kind::kPopRobust) {
      // The optimizer metrics come from the pop_robust queries, whose
      // planning is half of their time and which re-optimize; the analytic
      // templates plan in well under 1% of theirs.
      Args pop_args = args;
      pop_args.workload = "pop_robust";
      WorkloadConfig pop_config;
      MakeWorkload(pop_args.workload, args.seed, dop4, spill_dir, &pop_config);
      Tracer pop_tracer(true);
      Bench pop(pop_args, std::move(pop_config), dop4, &pop_tracer);
      pop.Setup();
      pop.RunLoop(NowNs(), kPopProbeRounds);
      pop.AddOptimizerMetrics(&metrics);
      write_spans(pop_tracer, "-pop");
      correct = pop.correct();
      attempted = pop.attempted();
      failed = pop.failed();
    }
  } else {
    bench.AddEndToEndMetrics(setup_s, &metrics);
  }
  correct = correct && bench.correct();
  PrintResult(correct, attempted + bench.attempted(), failed + bench.failed(),
              metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
