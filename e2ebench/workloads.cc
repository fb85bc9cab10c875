#include "workloads.h"

namespace e2ebench {

using rqp::AggFn;
using rqp::QuerySpec;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "olap_star", "ingest_refresh", "olap_star_dop4", "pop_robust",
      "pop_robust_off"};
  return names;
}

rqp::EngineOptions PlainEngineOptions(int dop, const std::string& spill_dir) {
  rqp::EngineOptions o;
  o.num_threads = dop;
  o.use_result_cache = 0;
  o.use_plan_cache = false;
  o.use_pop = false;
  o.use_rio = false;
  o.collect_feedback = false;
  o.auto_index_tuning = false;
  o.optimizer.robust_selection.enabled = 0;
  o.guardrails.enabled = false;
  o.spill_dir = spill_dir;
  return o;
}

bool MakeWorkload(const std::string& name, uint64_t seed, int dop4,
                  const std::string& spill_dir, WorkloadConfig* out) {
  WorkloadConfig w;
  w.star.seed = seed;
  w.star.num_dimensions = 3;
  w.star.dim_rows = 20000;
  w.star.fact_rows = 1000000;
  w.engine = PlainEngineOptions(1, spill_dir);
  if (name == "olap_star") {
    w.kind = Kind::kOlapStar;
  } else if (name == "olap_star_dop4") {
    w.kind = Kind::kOlapStarDop4;
    w.engine.num_threads = dop4;
  } else if (name == "pop_robust" || name == "pop_robust_off") {
    // The POP figures' star (E1-E3), scaled to a 6-dimension schema.
    // pop_robust_off runs the same queries with every robustness feature
    // off; it is a reference point, not one of the benchmark's workloads.
    w.kind = Kind::kPopRobust;
    w.star.num_dimensions = 6;
    w.star.dim_rows = 5000;
    w.star.fact_rows = 50000;
    w.index_fact_fk0 = true;
    if (name == "pop_robust") {
      w.engine.use_pop = true;
      w.engine.optimizer.robust_selection.enabled = 1;
      w.engine.guardrails.enabled = true;
      w.engine.guardrails.fuse_factor = 8;
    }
  } else if (name == "ingest_refresh") {
    // fact.fk0 is deliberately not indexed: appends leave a SortedIndex
    // stale (see CHANGES.md), so index plans on fact would miss rows.
    w.kind = Kind::kIngestRefresh;
    w.star.fact_rows = 500000;
    w.engine.use_result_cache = 1;
    w.engine.use_plan_cache = true;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

const char* TemplateName(int tmpl) {
  switch (tmpl) {
    case kScanFilter: return "scan_filter";
    case kStarJoin: return "star_join";
    case kJoinGroupby: return "join_groupby";
    case kDerivedGroupby: return "derived_groupby";
  }
  return "?";
}

QuerySpec MakeTemplateQuery(int tmpl, rqp::Rng* rng,
                            const rqp::StarSchemaSpec& star) {
  const int64_t dim = star.dim_rows;
  const int64_t measure_max = static_cast<int64_t>(star.measure_max);
  QuerySpec q;
  switch (tmpl) {
    case kScanFilter: {
      // 5-20% of the measure domain.
      const int64_t width = rng->Uniform(measure_max / 20, measure_max / 5);
      const int64_t lo = rng->Uniform(0, measure_max - width);
      q.tables.push_back({"fact", rqp::MakeBetween("measure", lo, lo + width)});
      q.aggregates = {{AggFn::kCount, "", "cnt"}};
      break;
    }
    case kStarJoin: {
      // dim attr = id * 10: each dimension keeps 20-30% of its rows.
      q.tables.push_back({"fact", nullptr});
      for (int d = 0; d < 2; ++d) {
        const std::string name = "dim" + std::to_string(d);
        const int64_t keep = rng->Uniform(dim / 5, dim * 3 / 10);
        q.tables.push_back({name, rqp::MakeBetween("attr", 0, keep * 10 - 1)});
        q.joins.push_back({"fact", "fk" + std::to_string(d), name, "id"});
      }
      q.aggregates = {{AggFn::kCount, "", "cnt"},
                      {AggFn::kSum, "fact.measure", "total"}};
      break;
    }
    case kJoinGroupby: {
      // A window of 50-60% of dim0, grouped into bands of ten ids.
      const int64_t keep = rng->Uniform(dim / 2, dim * 3 / 5);
      const int64_t lo = rng->Uniform(0, dim - keep);
      q.tables.push_back({"fact", nullptr});
      q.tables.push_back(
          {"dim0", rqp::MakeBetween("attr", lo * 10, (lo + keep) * 10 - 1)});
      q.joins.push_back({"fact", "fk0", "dim0", "id"});
      q.group_by = {"dim0.band"};
      q.aggregates = {{AggFn::kCount, "", "cnt"},
                      {AggFn::kSum, "fact.measure", "total"}};
      break;
    }
    case kDerivedGroupby: {
      // Rows with measure above a threshold at 20-30% of the domain.
      const int64_t lo = rng->Uniform(measure_max / 5, measure_max * 3 / 10);
      q.tables.push_back(
          {"fact", rqp::MakeCmp("measure", rqp::CmpOp::kGe, lo)});
      q.derived = {{"m3", rqp::MakeArith(rqp::MakeColExpr("fact.measure"),
                                         rqp::ArithOp::kMul,
                                         rqp::MakeConstExpr(3))}};
      q.group_by = {"fact.fk2"};
      q.aggregates = {{AggFn::kCount, "", "cnt"},
                      {AggFn::kSum, "m3", "total3"}};
      break;
    }
  }
  return q;
}

QuerySpec TotalRowsQuery() {
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  q.aggregates = {{AggFn::kCount, "", "cnt"}};
  return q;
}

QuerySpec Fk2GroupbyQuery() {
  QuerySpec q;
  q.tables.push_back({"fact", nullptr});
  q.group_by = {"fact.fk2"};
  q.aggregates = {{AggFn::kCount, "", "cnt"},
                  {AggFn::kSum, "fact.measure", "total"}};
  return q;
}

std::vector<std::vector<int64_t>> MakeFactRows(
    rqp::Rng* rng, int64_t n, const rqp::StarSchemaSpec& star) {
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int64_t> row;
    for (int d = 0; d < star.num_dimensions; ++d) {
      row.push_back(rng->Uniform(0, star.dim_rows - 1));
    }
    row.push_back(rng->Uniform(0, static_cast<int64_t>(star.measure_max)));
    if (star.add_correlated_columns) {
      row.push_back(row[0] * 1000 + 7);
      row.push_back(row[0] * 7 + 13);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace e2ebench
