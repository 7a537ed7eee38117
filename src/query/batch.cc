#include "query/batch.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace dbm::query {

using data::Value;
using data::ValueType;

Cell CellFromValue(const Value& v) {
  Cell c;
  c.tag = data::TypeOf(v);
  switch (c.tag) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      c.i = std::get<int64_t>(v);
      break;
    case ValueType::kDouble:
      c.d = std::get<double>(v);
      break;
    case ValueType::kString:
      c.s = std::get<std::string>(v);
      break;
  }
  return c;
}

Value CellToValue(const Cell& c) {
  switch (c.tag) {
    case ValueType::kInt:
      return Value{c.i};
    case ValueType::kDouble:
      return Value{c.d};
    case ValueType::kString:
      return Value{std::string(c.s)};
    case ValueType::kNull:
    default:
      return Value{};
  }
}

namespace {

/// Cross-type rank, as in CompareValues: null < numbers < strings.
inline int RankOf(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

inline double NumOf(const Cell& c) {
  return c.tag == ValueType::kInt ? static_cast<double>(c.i) : c.d;
}

}  // namespace

int CompareCells(const Cell& a, const Cell& b) {
  int ra = RankOf(a.tag), rb = RankOf(b.tag);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1: {
      double da = NumOf(a), db = NumOf(b);
      if (da < db) return -1;
      if (da > db) return 1;
      return 0;
    }
    default: {
      int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
  }
}

uint64_t HashCell(const Cell& c) {
  switch (c.tag) {
    case ValueType::kInt:
      return data::HashNumeric(static_cast<double>(c.i));
    case ValueType::kDouble:
      return data::HashNumeric(c.d);
    case ValueType::kString:
      return data::HashValue(c.s);
    case ValueType::kNull:
    default:
      return data::HashNull();
  }
}

bool CellTruthy(const Cell& c) {
  switch (c.tag) {
    case ValueType::kInt:
      return c.i != 0;
    case ValueType::kDouble:
      return c.d != 0.0;
    case ValueType::kString:
      return !c.s.empty();
    case ValueType::kNull:
    default:
      return false;
  }
}

namespace {

inline uint32_t PosOf(const uint32_t* sel, size_t i) {
  return sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
}

/// Calls f(i, row) for i in [0, n), where row is the storage row of
/// position PosOf(sel, i) through `rows` (null = identity). One loop per
/// shape, so the body inlines into each.
template <typename F>
inline void ForEachRow(const uint32_t* sel, const uint32_t* rows, size_t n,
                       F&& f) {
  if (rows == nullptr) {
    if (sel == nullptr) {
      for (size_t i = 0; i < n; ++i) f(i, i);
    } else {
      for (size_t i = 0; i < n; ++i) f(i, sel[i]);
    }
  } else if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) f(i, rows[i]);
  } else {
    for (size_t i = 0; i < n; ++i) f(i, rows[sel[i]]);
  }
}

/// Calls f(i, x) with x the double image — what CompareCells and
/// HashCell see — of each selected row of a uniform numeric column.
template <typename F>
inline void ForEachNumeric(ColumnAt at, const uint32_t* sel, size_t n,
                           F&& f) {
  if (at.col->uniform == ValueType::kInt) {
    const int64_t* a = at.col->ints;
    ForEachRow(sel, at.rows, n,
               [&](size_t i, size_t r) { f(i, static_cast<double>(a[r])); });
  } else {
    const double* a = at.col->doubles;
    ForEachRow(sel, at.rows, n, [&](size_t i, size_t r) { f(i, a[r]); });
  }
}

/// CompareCells on two numbers: NaN is neither below nor above anything,
/// so it compares equal.
inline int NumCmp(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// A uniform numeric column of the view, or a numeric literal: the
/// operands the typed compare reads without building a Cell.
bool IsNumericOperand(const Expr& e, const BatchView& v) {
  if (e.kind == ExprKind::kLiteral) {
    ValueType t = data::TypeOf(e.literal);
    return t == ValueType::kInt || t == ValueType::kDouble;
  }
  if (e.kind != ExprKind::kColumn || e.column >= v.arity) return false;
  ColumnAt at = v.Resolve(e.column);
  return at.col != nullptr && at.col->numeric();
}

/// out[i] = the double image of numeric operand `e` at position i.
void LoadNumeric(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, double* out) {
  if (e.kind == ExprKind::kLiteral) {
    std::fill(out, out + n, NumOf(CellFromValue(e.literal)));
    return;
  }
  ForEachNumeric(v.Resolve(e.column), sel, n,
                 [&](size_t i, double x) { out[i] = x; });
}

/// The typed compare: out[i] = 1 where `e` (a compare of two numeric
/// operands) passes. Uniform columns hold no nulls, so no row is null.
void CompareNumeric(const Expr& e, const BatchView& v, const uint32_t* sel,
                    size_t n, uint8_t* out, Arena* scratch) {
  double* l = scratch->AllocateArray<double>(n);
  double* r = scratch->AllocateArray<double>(n);
  LoadNumeric(*e.left, v, sel, n, l);
  LoadNumeric(*e.right, v, sel, n, r);
  // One loop per operator, so each compiles to a branch-free body.
  auto loop = [&](auto pass) {
    for (size_t i = 0; i < n; ++i) out[i] = pass(NumCmp(l[i], r[i])) ? 1 : 0;
  };
  switch (e.cmp) {
    case CmpOp::kEq: return loop([](int c) { return c == 0; });
    case CmpOp::kNe: return loop([](int c) { return c != 0; });
    case CmpOp::kLt: return loop([](int c) { return c < 0; });
    case CmpOp::kLe: return loop([](int c) { return c <= 0; });
    case CmpOp::kGt: return loop([](int c) { return c > 0; });
    case CmpOp::kGe: return loop([](int c) { return c >= 0; });
  }
}

bool IsNumericCompare(const Expr& e, const BatchView& v) {
  return e.kind == ExprKind::kCompare && IsNumericOperand(*e.left, v) &&
         IsNumericOperand(*e.right, v);
}

}  // namespace

Status EvalBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, Cell* out, Arena* scratch) {
  switch (e.kind) {
    case ExprKind::kColumn: {
      if (e.column >= v.arity) {
        return Status::OutOfRange(StrFormat(
            "column %zu beyond tuple arity %zu", e.column, v.arity));
      }
      for (size_t i = 0; i < n; ++i) {
        out[i] = v.Get(e.column, PosOf(sel, i));
      }
      return Status::OK();
    }
    case ExprKind::kLiteral: {
      Cell c = CellFromValue(e.literal);
      for (size_t i = 0; i < n; ++i) out[i] = c;
      return Status::OK();
    }
    case ExprKind::kCompare: {
      if (IsNumericCompare(e, v)) {
        uint8_t* pass = scratch->AllocateArray<uint8_t>(n);
        CompareNumeric(e, v, sel, n, pass, scratch);
        for (size_t i = 0; i < n; ++i) {
          out[i] = Cell{};
          out[i].tag = ValueType::kInt;
          out[i].i = pass[i];
        }
        return Status::OK();
      }
      Cell* l = scratch->AllocateArray<Cell>(n);
      Cell* r = scratch->AllocateArray<Cell>(n);
      DBM_RETURN_NOT_OK(EvalBatch(*e.left, v, sel, n, l, scratch));
      DBM_RETURN_NOT_OK(EvalBatch(*e.right, v, sel, n, r, scratch));
      for (size_t i = 0; i < n; ++i) {
        if (l[i].tag == ValueType::kNull || r[i].tag == ValueType::kNull) {
          out[i] = Cell{};  // null propagates
          continue;
        }
        int c = CompareCells(l[i], r[i]);
        bool pass = false;
        switch (e.cmp) {
          case CmpOp::kEq: pass = c == 0; break;
          case CmpOp::kNe: pass = c != 0; break;
          case CmpOp::kLt: pass = c < 0; break;
          case CmpOp::kLe: pass = c <= 0; break;
          case CmpOp::kGt: pass = c > 0; break;
          case CmpOp::kGe: pass = c >= 0; break;
        }
        out[i].tag = ValueType::kInt;
        out[i].i = pass ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot: {
      uint8_t* t = scratch->AllocateArray<uint8_t>(n);
      DBM_RETURN_NOT_OK(TestBatch(e, v, sel, n, t, scratch));
      for (size_t i = 0; i < n; ++i) {
        out[i].tag = ValueType::kInt;
        out[i].i = t[i] ? 1 : 0;
        out[i].s = {};
      }
      return Status::OK();
    }
    case ExprKind::kArith: {
      Cell* l = scratch->AllocateArray<Cell>(n);
      Cell* r = scratch->AllocateArray<Cell>(n);
      DBM_RETURN_NOT_OK(EvalBatch(*e.left, v, sel, n, l, scratch));
      DBM_RETURN_NOT_OK(EvalBatch(*e.right, v, sel, n, r, scratch));
      for (size_t i = 0; i < n; ++i) {
        if (l[i].tag == ValueType::kNull || r[i].tag == ValueType::kNull) {
          out[i] = Cell{};
          continue;
        }
        if (l[i].tag == ValueType::kString ||
            r[i].tag == ValueType::kString) {
          return Status::InvalidArgument("arithmetic on string value");
        }
        bool as_double = l[i].tag == ValueType::kDouble ||
                         r[i].tag == ValueType::kDouble;
        double a = NumOf(l[i]), b = NumOf(r[i]), res = 0;
        switch (e.arith) {
          case ArithOp::kAdd: res = a + b; break;
          case ArithOp::kSub: res = a - b; break;
          case ArithOp::kMul: res = a * b; break;
          case ArithOp::kDiv:
            if (b == 0) return Status::InvalidArgument("division by zero");
            res = a / b;
            break;
        }
        out[i].s = {};
        if (as_double || e.arith == ArithOp::kDiv) {
          out[i].tag = ValueType::kDouble;
          out[i].d = res;
        } else {
          out[i].tag = ValueType::kInt;
          out[i].i = static_cast<int64_t>(res);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown expression kind");
}

Status TestBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, uint8_t* out, Arena* scratch) {
  switch (e.kind) {
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = e.kind == ExprKind::kAnd;
      DBM_RETURN_NOT_OK(TestBatch(*e.left, v, sel, n, out, scratch));
      // Short-circuit: the right side runs only on rows the left side
      // left undecided (left-true for AND, left-false for OR) — a row
      // the left side decided must never evaluate (or error on) the
      // right side, exactly like Expr::Test.
      uint32_t* subpos = scratch->AllocateArray<uint32_t>(n);
      uint32_t* subidx = scratch->AllocateArray<uint32_t>(n);
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        bool undecided = is_and ? out[i] != 0 : out[i] == 0;
        if (undecided) {
          subpos[m] = PosOf(sel, i);
          subidx[m] = static_cast<uint32_t>(i);
          ++m;
        }
      }
      if (m == 0) return Status::OK();
      uint8_t* r = scratch->AllocateArray<uint8_t>(m);
      DBM_RETURN_NOT_OK(TestBatch(*e.right, v, subpos, m, r, scratch));
      for (size_t j = 0; j < m; ++j) out[subidx[j]] = r[j];
      return Status::OK();
    }
    case ExprKind::kNot: {
      DBM_RETURN_NOT_OK(TestBatch(*e.left, v, sel, n, out, scratch));
      for (size_t i = 0; i < n; ++i) out[i] = out[i] ? 0 : 1;
      return Status::OK();
    }
    default: {
      if (IsNumericCompare(e, v)) {
        CompareNumeric(e, v, sel, n, out, scratch);
        return Status::OK();
      }
      Cell* tmp = scratch->AllocateArray<Cell>(n);
      DBM_RETURN_NOT_OK(EvalBatch(e, v, sel, n, tmp, scratch));
      for (size_t i = 0; i < n; ++i) out[i] = CellTruthy(tmp[i]) ? 1 : 0;
      return Status::OK();
    }
  }
}

Status FilterBatch(const Expr& e, const BatchView& v, uint32_t* sel,
                   size_t n, size_t* out_n, Arena* scratch) {
  uint8_t* pass = scratch->AllocateArray<uint8_t>(n);
  DBM_RETURN_NOT_OK(TestBatch(e, v, sel, n, pass, scratch));
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[kept] = sel[i];
    kept += pass[i];
  }
  *out_n = kept;
  return Status::OK();
}

Status SelectBatch(const Expr* filter, const BatchView& v, size_t n,
                   Arena* scratch, uint32_t** sel, size_t* out_n) {
  *out_n = n;
  *sel = nullptr;
  if (filter == nullptr) return Status::OK();
  *sel = scratch->AllocateArray<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) (*sel)[i] = static_cast<uint32_t>(i);
  return FilterBatch(*filter, v, *sel, n, out_n, scratch);
}

void HashColumn(const BatchView& v, size_t col, const uint32_t* sel,
                size_t n, uint64_t* out) {
  ColumnAt at = v.Resolve(col);
  if (at.col != nullptr && at.col->numeric()) {
    ForEachNumeric(at, sel, n, [&](size_t i, double x) {
      out[i] = data::HashNumeric(x);
    });
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashCell(v.Get(col, PosOf(sel, i)));
  }
}

void LoadMemBatch(const data::ColumnarView& view, size_t begin, size_t end,
                  Arena* scratch, ColumnBatch* out) {
  size_t ncols = view.columns.size();
  Column* cols = scratch->AllocateArray<Column>(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const data::ColumnVector& cv = view.columns[c];
    cols[c].tags = cv.tags.data() + begin;
    cols[c].ints = cv.ints.empty() ? nullptr : cv.ints.data() + begin;
    cols[c].doubles =
        cv.doubles.empty() ? nullptr : cv.doubles.data() + begin;
    cols[c].strings =
        cv.strings.empty() ? nullptr : cv.strings.data() + begin;
    cols[c].uniform = cv.uniform;
  }
  out->rows = end - begin;
  out->ncols = ncols;
  out->cols = cols;
}

namespace {

/// DecodeRecord's column sink: writes each decoded value's tag and live
/// payload (9 bytes for an int cell) at the current row of its column.
/// The arrays are row-aligned and sized
/// for the morsel's expected rows; a column allocates a typed array the
/// first time one of its rows carries that type, and all arrays in use
/// double together if a morsel outgrows them. Each column's type mask
/// gives its uniform tag. String payloads are copied into the scratch
/// arena, since the page they were decoded from is unpinned after the
/// visit.
struct ColumnSink {
  struct Col {
    ColumnStore a;
    unsigned mask = 0;  // data::TypeBit of every type decoded
  };
  Col* cols;
  size_t ncols;
  size_t cap;
  size_t row = 0;
  Arena* scratch;

  template <typename T>
  T* Array(T*& a) {
    if (a == nullptr) a = scratch->AllocateArray<T>(cap);
    return a;
  }
  void Null(size_t c) {
    cols[c].a.tags[row] = static_cast<uint8_t>(ValueType::kNull);
    cols[c].mask |= data::TypeBit(ValueType::kNull);
  }
  void Int(size_t c, int64_t v) {
    Col& k = cols[c];
    k.a.tags[row] = static_cast<uint8_t>(ValueType::kInt);
    Array(k.a.ints)[row] = v;
    k.mask |= data::TypeBit(ValueType::kInt);
  }
  void Double(size_t c, double v) {
    Col& k = cols[c];
    k.a.tags[row] = static_cast<uint8_t>(ValueType::kDouble);
    Array(k.a.doubles)[row] = v;
    k.mask |= data::TypeBit(ValueType::kDouble);
  }
  void String(size_t c, std::string_view v) {
    Col& k = cols[c];
    k.a.tags[row] = static_cast<uint8_t>(ValueType::kString);
    Array(k.a.strings)[row] = scratch->CopyString(v);
    k.mask |= data::TypeBit(ValueType::kString);
  }

  template <typename T>
  void Regrow(T*& a, size_t ncap) {
    if (a == nullptr) return;
    T* grown = scratch->AllocateArray<T>(ncap);
    std::memcpy(grown, a, row * sizeof(T));
    a = grown;
  }
  /// Makes room for the next row.
  void Reserve() {
    if (row < cap) return;
    size_t ncap = cap * 2;
    for (size_t c = 0; c < ncols; ++c) {
      Regrow(cols[c].a.tags, ncap);
      Regrow(cols[c].a.ints, ncap);
      Regrow(cols[c].a.doubles, ncap);
      Regrow(cols[c].a.strings, ncap);
    }
    cap = ncap;
  }
};

}  // namespace

Status LoadPagedBatch(const storage::PagedRelation& rel, size_t page_begin,
                      size_t page_end, Arena* scratch, ColumnBatch* out,
                      uint64_t* raw_rows) {
  const size_t ncols = rel.schema().size();
  // Size the columns for the morsel's expected rows up front (the mean
  // page's record count, plus slack) rather than doubling into them: the
  // scratch a morsel needs stays near-constant, so warm-up sizes the
  // arena for every later morsel.
  const size_t expect =
      rel.pages() == 0 ? 0
                       : (rel.rows() * (page_end - page_begin) * 9 / 8) /
                             rel.pages();
  ColumnSink sink{scratch->AllocateArray<ColumnSink::Col>(ncols), ncols,
                  expect + 1, 0, scratch};
  for (size_t c = 0; c < ncols; ++c) {
    sink.cols[c] = ColumnSink::Col{};
    sink.cols[c].a.tags = scratch->AllocateArray<uint8_t>(sink.cap);
  }
  Status decoded;
  for (size_t page = page_begin; page < page_end && decoded.ok(); ++page) {
    DBM_RETURN_NOT_OK(rel.VisitPage(
        page, [&](uint16_t, const uint8_t* bytes, size_t size) {
          sink.Reserve();
          decoded = storage::DecodeRecord(bytes, size, ncols, sink);
          sink.row += decoded.ok() ? 1 : 0;
          return decoded.ok();
        }));
  }
  DBM_RETURN_NOT_OK(decoded);
  const size_t rows = sink.row;
  Column* cols = scratch->AllocateArray<Column>(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const ColumnStore& a = sink.cols[c].a;
    cols[c] = Column{a.tags, a.ints, a.doubles, a.strings,
                     data::UniformType(sink.cols[c].mask)};
  }
  out->rows = rows;
  out->ncols = ncols;
  out->cols = cols;
  if (raw_rows != nullptr) *raw_rows += rows;
  return Status::OK();
}

namespace {
/// A partition's bucket for hash `h`: the partition took the low bits
/// (h % kBatchPartitions), so the bucket takes the ones above them.
inline size_t BucketOf(uint64_t h, uint64_t mask) {
  return (h / kBatchPartitions) & mask;
}

/// Writes `v` at row `r` of a partition's typed array, first extending
/// the array over the rows since its last write (they hold other tags).
template <typename T>
inline void PutAt(ArenaVec<T>& a, size_t r, T v) {
  a.Resize(r);
  a.PushBack(v);
}
}  // namespace

void BuildCollector::AddBatch(const ColumnBatch& b, const uint32_t* sel,
                              size_t n, Arena* scratch) {
  BatchView view;
  view.batch = &b;
  view.arity = b.ncols;
  uint64_t* hashes = scratch->AllocateArray<uint64_t>(n);
  HashColumn(view, key_col_, sel, n, hashes);
  for (size_t k = 0; k < n; ++k) {
    const size_t row = PosOf(sel, k);
    Part& p = parts_[hashes[k] % kBatchPartitions];
    const size_t r = p.hashes.size();
    p.hashes.PushBack(hashes[k]);
    for (size_t c = 0; c < ncols_; ++c) {
      const Column& src = b.cols[c];
      Col& dst = p.cols[c];
      const uint8_t tag = src.tags[row];
      dst.tags.PushBack(tag);
      masks_[c] |= data::TypeBit(static_cast<ValueType>(tag));
      switch (static_cast<ValueType>(tag)) {
        case ValueType::kInt: PutAt(dst.ints, r, src.ints[row]); break;
        case ValueType::kDouble:
          PutAt(dst.doubles, r, src.doubles[row]);
          break;
        case ValueType::kString:
          PutAt(dst.strings, r, arena_->CopyString(src.strings[row]));
          break;
        case ValueType::kNull: break;
      }
    }
  }
}

void LayoutJoinTable(const BuildCollector* collectors, size_t n,
                     Arena* arena, BatchJoinTable* t) {
  const size_t ncols = t->ncols;
  size_t total = 0;
  for (size_t p = 0; p < kBatchPartitions; ++p) {
    BatchJoinTable::Part& part = t->parts[p];
    part = BatchJoinTable::Part{};
    part.base = total;
    for (size_t w = 0; w < n; ++w) {
      total += collectors[w].part(p).hashes.size();
    }
    part.rows = total - part.base;
  }
  t->rows = total;
  t->store = arena->AllocateArray<ColumnStore>(ncols);
  t->cols = arena->AllocateArray<Column>(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    unsigned mask = 0;
    for (size_t w = 0; w < n; ++w) mask |= collectors[w].type_mask(c);
    ColumnStore& s = t->store[c];
    s = ColumnStore{};
    s.tags = arena->AllocateArray<uint8_t>(total);
    if (mask & data::TypeBit(ValueType::kInt)) {
      s.ints = arena->AllocateArray<int64_t>(total);
    }
    if (mask & data::TypeBit(ValueType::kDouble)) {
      s.doubles = arena->AllocateArray<double>(total);
    }
    if (mask & data::TypeBit(ValueType::kString)) {
      s.strings = arena->AllocateArray<std::string_view>(total);
    }
    t->cols[c] = Column{s.tags, s.ints, s.doubles, s.strings,
                        data::UniformType(mask)};
  }
  t->hashes = arena->AllocateArray<uint64_t>(total);
  t->next = arena->AllocateArray<uint32_t>(total);
  // Mixed int/double keys still compare through their double images;
  // a null or string key leaves the probe on the Cell path.
  unsigned key_mask = 0;
  for (size_t w = 0; w < n; ++w) {
    key_mask |= collectors[w].type_mask(t->key_col);
  }
  const unsigned numeric = data::TypeBit(ValueType::kInt) |
                           data::TypeBit(ValueType::kDouble);
  t->keys = key_mask != 0 && (key_mask & ~numeric) == 0
                ? arena->AllocateArray<double>(total)
                : nullptr;
}

void MergePartition(const BuildCollector* collectors, size_t n, size_t p,
                    Arena* arena, BatchJoinTable* t) {
  BatchJoinTable::Part& part = t->parts[p];
  if (part.rows == 0) return;
  const size_t ncols = t->ncols;
  size_t g = part.base;
  for (size_t w = 0; w < n; ++w) {
    const BuildCollector::Part& src = collectors[w].part(p);
    const size_t rows = src.hashes.size();
    if (rows == 0) continue;
    std::memcpy(t->hashes + g, src.hashes.data(), rows * sizeof(uint64_t));
    for (size_t c = 0; c < ncols; ++c) {
      const BuildCollector::Col& from = src.cols[c];
      ColumnStore& to = t->store[c];
      std::memcpy(to.tags + g, from.tags.data(), rows);
      auto copy = [g](auto* dst, const auto& vec) {
        if (!vec.empty()) {
          std::memcpy(dst + g, vec.data(), vec.size() * sizeof(*dst));
        }
      };
      copy(to.ints, from.ints);
      copy(to.doubles, from.doubles);
      copy(to.strings, from.strings);
    }
    g += rows;
  }
  if (t->keys != nullptr) {
    const Column& key = t->cols[t->key_col];
    for (size_t r = part.base; r < part.base + part.rows; ++r) {
      t->keys[r] = key.tags[r] == static_cast<uint8_t>(ValueType::kInt)
                       ? static_cast<double>(key.ints[r])
                       : key.doubles[r];
    }
  }
  size_t nbuckets = 1;
  while (nbuckets < part.rows * 2) nbuckets <<= 1;
  uint32_t* heads = arena->AllocateArray<uint32_t>(nbuckets);
  std::memset(heads, 0, nbuckets * sizeof(uint32_t));
  part.mask = nbuckets - 1;
  for (size_t r = part.base; r < part.base + part.rows; ++r) {
    size_t b = BucketOf(t->hashes[r], part.mask);
    t->next[r] = heads[b];
    heads[b] = static_cast<uint32_t>(r + 1);
  }
  part.heads = heads;
}

void ProbeJoin(const BatchJoinTable& t, const BatchView& v, size_t n,
               Arena* scratch, ArenaVec<uint32_t>* pos,
               ArenaVec<uint32_t>* rows) {
  if (t.rows == 0 || n == 0) return;
  uint64_t* hashes = scratch->AllocateArray<uint64_t>(n);
  HashColumn(v, t.probe_col, nullptr, n, hashes);
  pos->Reserve(n);
  rows->Reserve(n);
  // Walks position p's chain, emitting every build row `equal` accepts.
  auto walk = [&](uint32_t p, auto&& equal) {
    const uint64_t h = hashes[p];
    const BatchJoinTable::Part& part = t.parts[h % kBatchPartitions];
    if (part.rows == 0) return;
    for (uint32_t r = part.heads[BucketOf(h, part.mask)]; r != 0;
         r = t.next[r - 1]) {
      if (t.hashes[r - 1] == h && equal(r - 1)) {
        pos->PushBack(p);
        rows->PushBack(r - 1);
      }
    }
  };
  ColumnAt probe = v.Resolve(t.probe_col);
  if (t.keys != nullptr && probe.col != nullptr && probe.col->numeric()) {
    double* keys = scratch->AllocateArray<double>(n);
    ForEachNumeric(probe, nullptr, n, [&](size_t i, double x) { keys[i] = x; });
    for (uint32_t p = 0; p < n; ++p) {
      const double key = keys[p];
      walk(p, [&](uint32_t r) { return NumCmp(t.keys[r], key) == 0; });
    }
    return;
  }
  const Column& build_key = t.cols[t.key_col];
  for (uint32_t p = 0; p < n; ++p) {
    const Cell key = v.Get(t.probe_col, p);
    walk(p, [&](uint32_t r) {
      return CompareCells(CellOf(build_key, r), key) == 0;
    });
  }
}

void BatchAggTable::Init(const std::vector<size_t>* group_by,
                         const std::vector<AggSpec>* aggs, Arena* state) {
  group_by_ = group_by;
  aggs_ = aggs;
  arena_ = state;
  keys_.Init(state);
  sums_.Init(state);
  mins_.Init(state);
  maxs_.Init(state);
  counts_.Init(state);
  hashes_.Init(state);
  gids_.Init(state);
  gids_.Reserve(kBatchRows);
  key_ = state->AllocateArray<Cell>(group_by->size());
  direct_ = nullptr;
  if (group_by->size() == 1) {
    direct_ = state->AllocateArray<uint32_t>(kDirectKeys);
    std::memset(direct_, 0, kDirectKeys * sizeof(uint32_t));
  }
  slots_ = nullptr;
  nslots_ = 0;
  ngroups_ = 0;
  Rehash(64);
}

void BatchAggTable::Rehash(size_t nslots) {
  slots_ = arena_->AllocateArray<uint32_t>(nslots);
  std::memset(slots_, 0, nslots * sizeof(uint32_t));
  nslots_ = nslots;
  size_t mask = nslots - 1;
  for (size_t g = 0; g < ngroups_; ++g) {
    size_t b = hashes_[g] & mask;
    while (slots_[b] != 0) b = (b + 1) & mask;
    slots_[b] = static_cast<uint32_t>(g + 1);
  }
}

uint32_t BatchAggTable::FindOrInsert(const Cell* key, uint64_t h) {
  // Grow at 70% load so probe chains stay short; the abandoned slot
  // array is reclaimed wholesale at the arena's next reset.
  if ((ngroups_ + 1) * 10 >= nslots_ * 7) Rehash(nslots_ * 2);
  size_t nk = group_by_->size();
  size_t mask = nslots_ - 1;
  size_t b = h & mask;
  while (slots_[b] != 0) {
    uint32_t g = slots_[b] - 1;
    if (hashes_[g] == h) {
      bool equal = true;
      for (size_t k = 0; k < nk; ++k) {
        if (CompareCells(keys_[g * nk + k], key[k]) != 0) {
          equal = false;
          break;
        }
      }
      if (equal) return g;
    }
    b = (b + 1) & mask;
  }
  slots_[b] = static_cast<uint32_t>(ngroups_ + 1);
  hashes_.PushBack(h);
  for (size_t k = 0; k < nk; ++k) {
    Cell c = key[k];
    if (c.tag == ValueType::kString) c.s = arena_->CopyString(c.s);
    keys_.PushBack(c);
  }
  for (size_t a = 0; a < aggs_->size(); ++a) {
    sums_.PushBack(0);
    mins_.PushBack(0);
    maxs_.PushBack(0);
    counts_.PushBack(0);
  }
  return static_cast<uint32_t>(ngroups_++);
}

namespace {
constexpr uint64_t kKeySeed = 14695981039346656037ULL;  // FNV basis
}  // namespace

void BatchAggTable::GroupIds(const BatchView& v, const uint32_t* sel,
                             size_t n, uint32_t* gid) {
  const size_t nk = group_by_->size();
  if (nk == 0) {
    if (n > 0) std::fill(gid, gid + n, FindOrInsert(key_, kKeySeed));
    return;
  }
  ColumnAt at = nk == 1 ? v.Resolve((*group_by_)[0]) : ColumnAt{};
  if (at.col != nullptr && at.col->uniform == ValueType::kInt) {
    // Small keys index `direct_`; the rest (and each key's first sight)
    // go through the hash table, which stays the one source of groups.
    const int64_t* ints = at.col->ints;
    ForEachRow(sel, at.rows, n, [&](size_t i, size_t r) {
      const int64_t k = ints[r];
      const bool small = static_cast<uint64_t>(k) < kDirectKeys;
      if (small && direct_[k] != 0) {
        gid[i] = direct_[k] - 1;
        return;
      }
      Cell key;
      key.tag = ValueType::kInt;
      key.i = k;
      uint32_t g = FindOrInsert(
          &key, data::HashCombine(kKeySeed, data::HashNumeric(
                                                static_cast<double>(k))));
      if (small) direct_[k] = g + 1;
      gid[i] = g;
    });
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    uint32_t pos = PosOf(sel, i);
    uint64_t h = kKeySeed;
    for (size_t k = 0; k < nk; ++k) {
      key_[k] = v.Get((*group_by_)[k], pos);
      h = data::HashCombine(h, HashCell(key_[k]));
    }
    gid[i] = FindOrInsert(key_, h);
  }
}

void BatchAggTable::FoldAgg(size_t a, const BatchView& v,
                            const uint32_t* sel, size_t n,
                            const uint32_t* gid) {
  const AggSpec& spec = (*aggs_)[a];
  const size_t na = aggs_->size();
  if (spec.func == AggFunc::kCount) {
    for (size_t i = 0; i < n; ++i) ++counts_[gid[i] * na + a];
    return;
  }
  auto fold = [&](size_t slot, double d) {
    if (counts_[slot] == 0) {
      mins_[slot] = maxs_[slot] = d;
    } else {
      if (d < mins_[slot]) mins_[slot] = d;
      if (d > maxs_[slot]) maxs_[slot] = d;
    }
    sums_[slot] += d;
    ++counts_[slot];
  };
  ColumnAt at = v.Resolve(spec.column);
  if (at.col != nullptr && at.col->numeric()) {
    ForEachNumeric(at, sel, n,
                   [&](size_t i, double d) { fold(gid[i] * na + a, d); });
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    Cell val = v.Get(spec.column, PosOf(sel, i));
    if (val.tag == ValueType::kNull) continue;
    // Mirrors the row accumulator's NumericOf: strings fold as 0.0.
    fold(gid[i] * na + a, val.tag == ValueType::kString ? 0.0 : NumOf(val));
  }
}

void BatchAggTable::Fold(const BatchView& v, const uint32_t* sel, size_t n) {
  gids_.Reserve(n);
  uint32_t* gid = gids_.data();
  GroupIds(v, sel, n, gid);
  for (size_t a = 0; a < aggs_->size(); ++a) FoldAgg(a, v, sel, n, gid);
}

void BatchAggTable::ExportTo(GroupAccumulator* acc) const {
  size_t nk = group_by_->size();
  size_t na = aggs_->size();
  for (size_t g = 0; g < ngroups_; ++g) {
    data::Tuple key;
    key.values.reserve(nk);
    for (size_t k = 0; k < nk; ++k) {
      key.values.push_back(CellToValue(keys_[g * nk + k]));
    }
    acc->FoldPartial(std::move(key), sums_.data() + g * na,
                     mins_.data() + g * na, maxs_.data() + g * na,
                     counts_.data() + g * na);
  }
}

}  // namespace dbm::query
