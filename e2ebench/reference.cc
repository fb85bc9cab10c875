#include "reference.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <variant>

namespace e2ebench {
namespace {

using rqp::AggFn;
using rqp::CmpOp;
using rqp::Status;
using rqp::StatusOr;
using rqp::Table;

bool Compare(int64_t lhs, CmpOp op, int64_t rhs) {
  switch (op) {
    case CmpOp::kEq: return lhs == rhs;
    case CmpOp::kNe: return lhs != rhs;
    case CmpOp::kLt: return lhs < rhs;
    case CmpOp::kLe: return lhs <= rhs;
    case CmpOp::kGt: return lhs > rhs;
    case CmpOp::kGe: return lhs >= rhs;
  }
  return false;
}

// Two's-complement wraparound, matching the engine's integer semantics.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// "table.column" or "column" → the column of `table`, or null.
const std::vector<int64_t>* ResolveColumn(const Table& table,
                                          const std::string& name) {
  std::string column = name;
  const std::string prefix = table.name() + ".";
  if (column.compare(0, prefix.size(), prefix) == 0) {
    column = column.substr(prefix.size());
  }
  auto idx = table.ColumnIndex(column);
  if (!idx.ok()) return nullptr;
  return &table.column(idx.value());
}

/// A local predicate resolved against one table's columns.
struct Pred {
  enum Kind { kCmp, kBetween, kIn, kAnd, kOr, kNot, kConst };
  Kind kind = kConst;
  const std::vector<int64_t>* col = nullptr;
  CmpOp op = CmpOp::kEq;
  int64_t lo = 0, hi = 0;
  std::vector<int64_t> values;  // sorted, for kIn
  std::vector<Pred> kids;
  bool value = true;

  bool Eval(size_t r) const {
    switch (kind) {
      case kCmp: return Compare((*col)[r], op, lo);
      case kBetween: return (*col)[r] >= lo && (*col)[r] <= hi;
      case kIn:
        return std::binary_search(values.begin(), values.end(), (*col)[r]);
      case kAnd:
        for (const Pred& k : kids) {
          if (!k.Eval(r)) return false;
        }
        return true;
      case kOr:
        for (const Pred& k : kids) {
          if (k.Eval(r)) return true;
        }
        return false;
      case kNot: return !kids[0].Eval(r);
      case kConst: return value;
    }
    return false;
  }
};

StatusOr<Pred> CompilePred(const rqp::PredicatePtr& p, const Table& table,
                           const std::vector<int64_t>& params) {
  Pred out;
  if (p == nullptr) return out;  // kConst true
  auto column = [&](const std::string& name)
      -> StatusOr<const std::vector<int64_t>*> {
    const std::vector<int64_t>* col = ResolveColumn(table, name);
    if (col == nullptr) {
      return Status::NotFound("reference: no column " + name + " in " +
                              table.name());
    }
    return col;
  };
  const auto& node = p->node;
  if (const auto* c = std::get_if<rqp::Comparison>(&node)) {
    auto col = column(c->column);
    if (!col.ok()) return col.status();
    out.kind = Pred::kCmp;
    out.col = col.value();
    out.op = c->op;
    out.lo = c->value;
    if (c->param_index >= 0) {
      if (static_cast<size_t>(c->param_index) >= params.size()) {
        return Status::FailedPrecondition("reference: unbound parameter");
      }
      out.lo = params[static_cast<size_t>(c->param_index)];
    }
  } else if (const auto* b = std::get_if<rqp::Between>(&node)) {
    auto col = column(b->column);
    if (!col.ok()) return col.status();
    out.kind = Pred::kBetween;
    out.col = col.value();
    out.lo = b->lo;
    out.hi = b->hi;
  } else if (const auto* in = std::get_if<rqp::InList>(&node)) {
    auto col = column(in->column);
    if (!col.ok()) return col.status();
    out.kind = Pred::kIn;
    out.col = col.value();
    out.values = in->values;
    std::sort(out.values.begin(), out.values.end());
  } else if (const auto* n = std::get_if<rqp::Negation>(&node)) {
    out.kind = Pred::kNot;
    auto kid = CompilePred(n->child, table, params);
    if (!kid.ok()) return kid.status();
    out.kids.push_back(std::move(kid).value());
  } else {
    const auto* conj = std::get_if<rqp::Conjunction>(&node);
    const auto* disj = std::get_if<rqp::Disjunction>(&node);
    if (conj == nullptr && disj == nullptr) {
      return Status::Unimplemented("reference: unsupported predicate");
    }
    out.kind = conj != nullptr ? Pred::kAnd : Pred::kOr;
    const auto& children = conj != nullptr ? conj->children : disj->children;
    for (const auto& child : children) {
      auto kid = CompilePred(child, table, params);
      if (!kid.ok()) return kid.status();
      out.kids.push_back(std::move(kid).value());
    }
  }
  return out;
}

/// Row ids of one joined table, grouped by join key.
class KeyMap {
 public:
  KeyMap(const std::vector<int64_t>& keys, const Pred& pred, int64_t rows)
      : next_(static_cast<size_t>(rows), -1) {
    // Insert in reverse so each chain lists row ids in ascending order.
    for (int64_t r = rows - 1; r >= 0; --r) {
      const size_t ur = static_cast<size_t>(r);
      if (!pred.Eval(ur)) continue;
      int64_t& head = heads_.try_emplace(keys[ur], -1).first->second;
      next_[ur] = head;
      head = r;
    }
  }

  /// First row id with `key` (-1 if none); continue with Next().
  int64_t First(int64_t key) const {
    auto it = heads_.find(key);
    return it == heads_.end() ? -1 : it->second;
  }
  int64_t Next(int64_t row) const { return next_[static_cast<size_t>(row)]; }

 private:
  std::unordered_map<int64_t, int64_t> heads_;
  std::vector<int64_t> next_;
};

/// A slot read from the current joined row: source table `src` (0 = root)
/// at `col`, or derived column `derived` when col is null.
struct SlotRef {
  size_t src = 0;
  const std::vector<int64_t>* col = nullptr;
  int derived = -1;
};

/// A derived expression resolved to slots.
struct Expr {
  enum Kind { kCol, kConst, kMul };
  Kind kind = kConst;
  SlotRef slot;
  int64_t value = 0;
  std::vector<Expr> kids;
};

struct RowCtx {
  const std::vector<int64_t>* rowids;  // one row id per source table
  const std::vector<int64_t>* derived;

  int64_t Get(const SlotRef& s) const {
    if (s.col == nullptr) return (*derived)[static_cast<size_t>(s.derived)];
    return (*s.col)[static_cast<size_t>((*rowids)[s.src])];
  }
  int64_t Eval(const Expr& e) const {
    switch (e.kind) {
      case Expr::kCol: return Get(e.slot);
      case Expr::kConst: return e.value;
      case Expr::kMul: return WrapMul(Eval(e.kids[0]), Eval(e.kids[1]));
    }
    return 0;
  }
};

}  // namespace

bool IsAggregate(const rqp::QuerySpec& spec) {
  return !spec.aggregates.empty() || !spec.group_by.empty();
}

void Answer::SortRows() {
  const size_t n = num_rows();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(row(a), row(a) + width, row(b),
                                        row(b) + width);
  });
  std::vector<int64_t> sorted;
  sorted.reserve(cells.size());
  for (size_t i : order) sorted.insert(sorted.end(), row(i), row(i) + width);
  cells = std::move(sorted);
}

Answer CanonicalAnswer(const std::vector<rqp::RowBatch>& batches,
                       bool aggregate) {
  Answer out;
  for (const rqp::RowBatch& b : batches) {
    if (b.num_rows() == 0) continue;
    out.width = b.num_cols();
    for (size_t r = 0; r < b.num_rows(); ++r) {
      const size_t start = out.cells.size();
      out.cells.insert(out.cells.end(), b.row(r), b.row(r) + b.num_cols());
      if (!aggregate) {
        std::sort(out.cells.begin() + static_cast<std::ptrdiff_t>(start),
                  out.cells.end());
      }
    }
  }
  out.SortRows();
  return out;
}

std::string DiffAnswers(const Answer& want, const Answer& got) {
  auto render = [](const Answer& a, size_t i) {
    std::string s = "(";
    for (size_t c = 0; c < a.width && c < 6; ++c) {
      if (c > 0) s += ",";
      s += std::to_string(a.row(i)[c]);
    }
    return s + (a.width > 6 ? ",...)" : ")");
  };
  if (want.num_rows() != got.num_rows()) {
    return "row count " + std::to_string(got.num_rows()) + ", expected " +
           std::to_string(want.num_rows());
  }
  if (want.num_rows() > 0 && want.width != got.width) {
    return "row width " + std::to_string(got.width) + ", expected " +
           std::to_string(want.width);
  }
  for (size_t i = 0; i < want.num_rows(); ++i) {
    if (!std::equal(want.row(i), want.row(i) + want.width, got.row(i))) {
      return "row " + std::to_string(i) + " is " + render(got, i) +
             ", expected " + render(want, i);
    }
  }
  return "";
}

AnswerDigest Digest(const Answer& answer) {
  auto mix = [](uint64_t x) {  // murmur3 fmix64
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  };
  AnswerDigest d;
  d.rows = answer.num_rows();
  // The width counts only for non-empty answers, as in Answer::operator==.
  uint64_t h = answer.cells.empty() ? 0 : mix(answer.width);
  for (int64_t c : answer.cells) {
    h = mix(h ^ static_cast<uint64_t>(c)) + 0x9E3779B97F4A7C15ULL;
  }
  d.hash = h;
  return d;
}

std::string CheckerSelfTest(const Answer& answer) {
  if (answer.num_rows() < 2) return "self-test needs two rows";
  auto accepts = [&](const Answer& got) {
    return DiffAnswers(answer, got).empty() || Digest(answer) == Digest(got);
  };
  Answer copy = answer;
  if (!DiffAnswers(answer, copy).empty() ||
      !(Digest(answer) == Digest(copy))) {
    return "checker rejected an identical answer";
  }
  Answer changed = answer;
  changed.cells.back() = WrapAdd(changed.cells.back(), 1);
  changed.SortRows();
  if (accepts(changed)) return "checker accepted a changed aggregate cell";
  Answer dropped = answer;
  const auto mid = dropped.cells.begin() +
                   static_cast<std::ptrdiff_t>(dropped.num_rows() / 2 *
                                               dropped.width);
  dropped.cells.erase(mid, mid + static_cast<std::ptrdiff_t>(dropped.width));
  if (accepts(dropped)) return "checker accepted a dropped group";
  return "";
}

StatusOr<Answer> ReferenceEvaluator::Evaluate(
    const rqp::QuerySpec& spec) const {
  if (spec.tables.empty()) {
    return Status::InvalidArgument("reference: query has no tables");
  }
  // The root is the table every join edge touches.
  const size_t ntables = spec.tables.size();
  size_t root = 0;
  if (!spec.joins.empty()) {
    const auto& e0 = spec.joins[0];
    root = ntables;
    for (size_t t = 0; t < ntables; ++t) {
      const std::string& name = spec.tables[t].table;
      if (name != e0.left_table && name != e0.right_table) continue;
      bool on_every_edge = true;
      for (const auto& e : spec.joins) {
        on_every_edge &= e.left_table == name || e.right_table == name;
      }
      if (on_every_edge && root == ntables) root = t;
    }
    if (root == ntables || spec.joins.size() != ntables - 1) {
      return Status::Unimplemented("reference: only star joins supported");
    }
  }

  // Sources: the root first, then the joined tables in query order.
  std::vector<size_t> order = {root};
  for (size_t t = 0; t < ntables; ++t) {
    if (t != root) order.push_back(t);
  }
  std::vector<const Table*> tables;
  std::vector<Pred> preds;
  for (size_t t : order) {
    auto table = catalog_->GetTable(spec.tables[t].table);
    if (!table.ok()) return table.status();
    tables.push_back(table.value());
    auto pred = CompilePred(spec.tables[t].predicate, *table.value(),
                            spec.params);
    if (!pred.ok()) return pred.status();
    preds.push_back(std::move(pred).value());
  }

  // One key map per joined table, keyed on its side of the edge; the root's
  // side gives the probe column.
  std::vector<std::unique_ptr<KeyMap>> maps(tables.size());
  std::vector<const std::vector<int64_t>*> probe(tables.size(), nullptr);
  for (size_t s = 1; s < tables.size(); ++s) {
    const std::string& name = tables[s]->name();
    const rqp::JoinEdge* edge = nullptr;
    for (const auto& e : spec.joins) {
      if (e.left_table == name || e.right_table == name) edge = &e;
    }
    if (edge == nullptr) {
      return Status::Unimplemented("reference: " + name + " is not joined");
    }
    const bool left = edge->left_table == name;
    const std::vector<int64_t>* key =
        ResolveColumn(*tables[s], left ? edge->left_column
                                       : edge->right_column);
    probe[s] = ResolveColumn(*tables[0], left ? edge->right_column
                                              : edge->left_column);
    if (key == nullptr || probe[s] == nullptr) {
      return Status::NotFound("reference: join column not found");
    }
    maps[s] = std::make_unique<KeyMap>(*key, preds[s], tables[s]->num_rows());
  }

  auto resolve = [&](const std::string& slot) -> StatusOr<SlotRef> {
    for (size_t d = 0; d < spec.derived.size(); ++d) {
      if (spec.derived[d].name == slot) {
        SlotRef ref;
        ref.derived = static_cast<int>(d);
        return ref;
      }
    }
    const size_t dot = slot.find('.');
    for (size_t s = 0; s < tables.size(); ++s) {
      if (dot == std::string::npos ||
          slot.substr(0, dot) != tables[s]->name()) {
        continue;
      }
      SlotRef ref;
      ref.src = s;
      ref.col = ResolveColumn(*tables[s], slot);
      if (ref.col != nullptr) return ref;
    }
    return Status::NotFound("reference: unknown slot " + slot);
  };
  std::function<StatusOr<Expr>(const rqp::ExprPtr&)> compile_expr =
      [&](const rqp::ExprPtr& e) -> StatusOr<Expr> {
    Expr out;
    if (const auto* c = std::get_if<rqp::ExprCol>(&e->node)) {
      auto ref = resolve(c->column);
      if (!ref.ok()) return ref.status();
      out.kind = Expr::kCol;
      out.slot = ref.value();
      return out;
    }
    if (const auto* k = std::get_if<rqp::ExprConst>(&e->node)) {
      out.kind = Expr::kConst;
      out.value = k->value;
      return out;
    }
    const auto* a = std::get_if<rqp::ExprArith>(&e->node);
    if (a == nullptr || a->op != rqp::ArithOp::kMul) {
      return Status::Unimplemented("reference: unsupported expression");
    }
    out.kind = Expr::kMul;
    for (const auto& kid : {a->left, a->right}) {
      auto k = compile_expr(kid);
      if (!k.ok()) return k.status();
      out.kids.push_back(std::move(k).value());
    }
    return out;
  };

  std::vector<Expr> derived;
  for (const auto& d : spec.derived) {
    auto e = compile_expr(d.expr);
    if (!e.ok()) return e.status();
    derived.push_back(std::move(e).value());
  }
  const bool aggregate = IsAggregate(spec);
  std::vector<SlotRef> group_slots, agg_slots;
  for (const auto& g : spec.group_by) {
    auto ref = resolve(g);
    if (!ref.ok()) return ref.status();
    group_slots.push_back(ref.value());
  }
  for (const auto& a : spec.aggregates) {
    if (a.fn != AggFn::kCount && a.fn != AggFn::kSum) {
      return Status::Unimplemented("reference: only COUNT and SUM");
    }
    SlotRef ref;
    if (a.fn == AggFn::kSum) {
      auto r = resolve(a.slot);
      if (!r.ok()) return r.status();
      ref = r.value();
    }
    agg_slots.push_back(ref);
  }

  const size_t naggs = spec.aggregates.size();
  const size_t nkeys = group_slots.size();
  if (nkeys > 1) {
    return Status::Unimplemented("reference: more than one GROUP BY column");
  }
  // Group key → group number. A global aggregate has its one group from the
  // start, so over no rows it still yields one row, as the engine's HashAgg
  // does.
  std::unordered_map<int64_t, size_t> groups;
  std::vector<int64_t> group_keys;  // one per group
  std::vector<int64_t> accs;        // naggs per group
  if (aggregate && nkeys == 0) {
    group_keys.push_back(0);
    accs.resize(naggs, 0);
  }
  Answer answer;

  std::vector<int64_t> rowids(tables.size(), 0);
  std::vector<int64_t> derived_vals(derived.size(), 0);
  const RowCtx ctx{&rowids, &derived_vals};

  auto emit = [&]() {
    for (size_t d = 0; d < derived.size(); ++d) {
      derived_vals[d] = ctx.Eval(derived[d]);
    }
    if (!aggregate) {
      // Every column of every table, then the derived columns; cells are
      // sorted within the row as CanonicalAnswer does.
      const size_t start = answer.cells.size();
      for (size_t s = 0; s < tables.size(); ++s) {
        for (size_t c = 0; c < tables[s]->schema().num_columns(); ++c) {
          answer.cells.push_back(tables[s]->Value(c, rowids[s]));
        }
      }
      answer.cells.insert(answer.cells.end(), derived_vals.begin(),
                          derived_vals.end());
      answer.width = answer.cells.size() - start;
      std::sort(answer.cells.begin() + static_cast<std::ptrdiff_t>(start),
                answer.cells.end());
      return;
    }
    size_t group = 0;
    if (nkeys == 1) {
      const int64_t key = ctx.Get(group_slots[0]);
      const auto [it, inserted] = groups.try_emplace(key, group_keys.size());
      if (inserted) {
        group_keys.push_back(key);
        accs.resize(accs.size() + naggs, 0);
      }
      group = it->second;
    }
    int64_t* acc = accs.data() + group * naggs;
    for (size_t a = 0; a < naggs; ++a) {
      acc[a] = spec.aggregates[a].fn == AggFn::kCount
                   ? acc[a] + 1
                   : WrapAdd(acc[a], ctx.Get(agg_slots[a]));
    }
  };

  // Depth-first over the joined tables' matches for one root row.
  std::function<void(size_t)> join = [&](size_t s) {
    if (s == tables.size()) {
      emit();
      return;
    }
    const int64_t probe_key =
        (*probe[s])[static_cast<size_t>(rowids[0])];
    for (int64_t r = maps[s]->First(probe_key); r >= 0;
         r = maps[s]->Next(r)) {
      rowids[s] = r;
      join(s + 1);
    }
  };

  const int64_t root_rows = tables[0]->num_rows();
  for (int64_t r = 0; r < root_rows; ++r) {
    if (!preds[0].Eval(static_cast<size_t>(r))) continue;
    rowids[0] = r;
    if (tables.size() == 1) {
      emit();
    } else {
      join(1);
    }
  }

  if (aggregate) {
    answer.width = nkeys + naggs;
    for (size_t g = 0; g < group_keys.size(); ++g) {
      if (nkeys == 1) answer.cells.push_back(group_keys[g]);
      const auto a = accs.begin() + static_cast<std::ptrdiff_t>(g * naggs);
      answer.cells.insert(answer.cells.end(), a,
                          a + static_cast<std::ptrdiff_t>(naggs));
    }
  }
  answer.SortRows();
  return answer;
}

}  // namespace e2ebench
