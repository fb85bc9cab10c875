// Workload definitions: data shapes, engine features and query templates.
//
// Everything here is a pure function of the seed: the same seed gives the
// same tables, the same query parameters and the same appended rows.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "optimizer/optimizer.h"
#include "storage/data_generator.h"
#include "util/rng.h"

namespace e2ebench {

enum class Kind { kOlapStar, kOlapStarDop4, kPopRobust, kIngestRefresh };

struct WorkloadConfig {
  Kind kind = Kind::kOlapStar;
  rqp::StarSchemaSpec star;
  /// Secondary index on fact.fk0 besides the dimension-id indexes.
  bool index_fact_fk0 = false;
  /// Every workload-defining engine feature, set explicitly. Executor tiers
  /// (vectorized, late materialization, SIMD) stay at their defaults.
  rqp::EngineOptions engine;
};

/// Names accepted by --workload: the two benchmark workloads (olap_star,
/// ingest_refresh), then the reference workloads olap_star_dop4, pop_robust
/// and pop_robust_off (pop_robust with POP, robust selection and guardrails
/// off). README.md says why the reference workloads are not in the
/// benchmark.
const std::vector<std::string>& WorkloadNames();

/// The configuration of workload `name` under `seed`; false if unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, int dop4,
                  const std::string& spill_dir, WorkloadConfig* out);

/// Engine options with every workload feature off, at `dop`.
rqp::EngineOptions PlainEngineOptions(int dop, const std::string& spill_dir);

// ---- The four analytic query templates ----------------------------------

enum Template {
  kScanFilter,      ///< range on fact.measure, COUNT(*)
  kStarJoin,        ///< fact ⋈ two filtered dimensions, COUNT + SUM
  kJoinGroupby,     ///< fact ⋈ dim0 GROUP BY dim0.band
  kDerivedGroupby,  ///< measure*3 GROUP BY fact.fk2
  kNumTemplates
};

const char* TemplateName(int tmpl);

/// One query of template `tmpl` with parameters drawn from `rng`.
rqp::QuerySpec MakeTemplateQuery(int tmpl, rqp::Rng* rng,
                                 const rqp::StarSchemaSpec& star);

// ---- ingest_refresh dashboard panels ------------------------------------

/// COUNT(*) over fact.
rqp::QuerySpec TotalRowsQuery();
/// COUNT(*) and SUM(measure) GROUP BY fact.fk2 — one group per dim2 row.
rqp::QuerySpec Fk2GroupbyQuery();

/// `n` valid fact rows (foreign keys inside the dimensions, measure in its
/// domain, corr/corr2 derived from fk0 as the generator derives them).
std::vector<std::vector<int64_t>> MakeFactRows(rqp::Rng* rng, int64_t n,
                                               const rqp::StarSchemaSpec& star);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
