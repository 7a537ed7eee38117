// Columnar batch execution: the vectorized layer under the morsel engine.
//
// The paper's claim is that a database machine on commodity parts wins by
// running "as fast as the hardware allows"; TabulaROSA frames tabular
// operators as the massively-parallel primitive, and a primitive only pays
// if its kernels use its layout. This layer runs the parallel engine's
// whole pipeline, at every dop, as batch-at-a-time kernels:
//
//   ColumnBatch   ~1024 rows of a morsel as typed contiguous columns
//                 (int64 / double / string-ref) plus per-row type tags and
//                 a per-column uniform tag, borrowed zero-copy from
//                 Relation::Columnar() for mem scans, decoded in place into
//                 arena scratch for paged scans (each row writes its tag
//                 and its live payload only).
//   selection     filters produce a selection vector (indices of passing
//                 rows) instead of moving any data.
//   kernels       EvalBatch / TestBatch / FilterBatch run an Expr over a
//                 whole batch in tight loops; join build/probe hash whole
//                 key columns and chase per-partition chains over a
//                 column-wise build side, emitting build-row ids;
//                 BatchAggTable folds column spans into per-worker
//                 open-addressed groups.
//
// Typed kernels. A column whose rows all carry one non-null tag (its
// `uniform` tag: kInt, kDouble or kString) is read straight from its
// typed array: numeric compares against a literal or another numeric
// column write the selection directly, HashColumn hashes the int64 /
// double array, the join probe compares a numeric key column against the
// build side's double key image, and the aggregation table finds a single
// int key's group by direct indexing (keys in [0, 4096)) or by hash, and
// folds numeric value columns without building a Cell. Every other case
// — nulls, mixed types, computed (projected) columns, strings where no
// typed kernel exists — takes the general Cell path, per batch: a paged
// column that is all-int in one morsel and holds a null in the next runs
// typed, then Cell.
//
// Everything transient lives in per-worker slab arenas (common/arena.h):
// scratch resets every morsel, state every query, both retain their
// chunks — so the steady-state morsel body performs zero operator-new
// calls on mem and paged scans alike (asserted by tests/batch_test.cc via
// the counting-allocator hook).
//
// Semantics are pinned to the row operators cell-for-cell, on the typed
// paths as on the Cell path: CompareValues / HashValue equivalences
// (numbers compare and hash through their double image, so 3 joins 3.0,
// -0.0 equals 0.0, ints above 2^53 compare as doubles and NaN compares
// equal; null keys match null keys in joins), Expr null propagation,
// And/Or short-circuit (the right side is only evaluated for rows the
// left side did not decide — a division-by-zero on a short-circuited row
// must NOT error), each group folding its rows in order, and the exact
// error strings. The equivalence suite (tests/batch_test.cc) holds batch
// results order-normalised identical to the serial row operator tree
// (BuildSerial) at dop 1/2/4/8, and pins each typed kernel to the Cell
// path on the same input.

#ifndef DBM_QUERY_BATCH_H_
#define DBM_QUERY_BATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "data/relation.h"
#include "query/aggregate.h"
#include "query/expr.h"
#include "storage/paged_relation.h"

namespace dbm::query {

/// Target batch width: one default in-memory morsel.
constexpr size_t kBatchRows = 1024;

/// Join-table partitions: each is merged by exactly one worker.
constexpr size_t kBatchPartitions = 16;

/// One untyped cell: the tag says which payload is live. Trivially
/// copyable so cells can live in arenas and be memcpy'd by ArenaVec.
/// String payloads are views — into relation storage, an arena, or an
/// expression literal — never owned.
struct Cell {
  data::ValueType tag = data::ValueType::kNull;
  int64_t i = 0;
  double d = 0;
  std::string_view s;
};

Cell CellFromValue(const data::Value& v);
data::Value CellToValue(const Cell& c);
/// Mirrors data::CompareValues (null < numbers < strings; int/double
/// compare numerically; strings lexicographically).
int CompareCells(const Cell& a, const Cell& b);
/// Mirrors data::HashValue over the equivalent Value.
uint64_t HashCell(const Cell& c);
/// Mirrors Expr::Test truthiness: null false, numbers non-zero, strings
/// non-empty.
bool CellTruthy(const Cell& c);

/// One scan column: per-row tags plus typed arrays (only the arrays the
/// column uses are non-null). Pointers borrow from Relation::Columnar(),
/// arena scratch or a join table; the column never owns storage.
struct Column {
  const uint8_t* tags = nullptr;  // data::ValueType per row
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const std::string_view* strings = nullptr;
  /// The tag every row carries (so there are no nulls and the typed array
  /// alone holds the column), or kNull when rows differ: typed kernels
  /// run on uniform columns, the Cell path reads the tags.
  data::ValueType uniform = data::ValueType::kNull;

  bool numeric() const {
    return uniform == data::ValueType::kInt ||
           uniform == data::ValueType::kDouble;
  }
};

inline Cell CellOf(const Column& c, size_t row) {
  Cell out;
  out.tag = static_cast<data::ValueType>(c.tags[row]);
  switch (out.tag) {
    case data::ValueType::kNull:
      break;
    case data::ValueType::kInt:
      out.i = c.ints[row];
      break;
    case data::ValueType::kDouble:
      out.d = c.doubles[row];
      break;
    case data::ValueType::kString:
      out.s = c.strings[row];
      break;
  }
  return out;
}

/// A morsel's worth of rows as columns. `cols` points into arena scratch
/// (rewritten every morsel); rows is the physical batch height.
struct ColumnBatch {
  size_t rows = 0;
  size_t ncols = 0;
  const Column* cols = nullptr;
};

/// Where a visible column of a pipeline view resolves to.
enum class ColSrc : uint8_t {
  kScan,      // batch->cols[off] at the position's scan row
  kSeg,       // seg_cols[seg][off] at the position's stage-seg build row
  kComputed,  // computed[off][pos] — a projected/evaluated column
};

struct ColRef {
  ColSrc src = ColSrc::kScan;
  uint16_t seg = 0;
  uint32_t off = 0;
};

/// A view column resolved to its storage: position `pos` reads row
/// `rows[pos]` of `col` (row `pos` when rows is null). `col` is null for
/// a computed column, which only the Cell path reads.
struct ColumnAt {
  const Column* col = nullptr;
  const uint32_t* rows = nullptr;
};

/// A positional view over the pipeline at some point: scan columns,
/// joined build columns, and computed columns, unified behind Get(col,
/// pos) for the Cell path and Resolve(col) for typed kernels. Positions
/// are dense pipeline indices; `pos_to_row` maps them back to scan rows
/// (null = identity, i.e. pos IS the row) and `seg_rows[k]` to stage k's
/// build rows. A null `colmap` means the view is exactly the scan
/// columns.
struct BatchView {
  const ColumnBatch* batch = nullptr;
  const uint32_t* pos_to_row = nullptr;
  const ColRef* colmap = nullptr;
  size_t arity = 0;
  const Column* const* seg_cols = nullptr;    // stage k's build columns
  const uint32_t* const* seg_rows = nullptr;  // seg_rows[k][pos]
  const Cell* const* computed = nullptr;      // computed[off][pos]

  ColRef Ref(size_t col) const {
    return colmap != nullptr
               ? colmap[col]
               : ColRef{ColSrc::kScan, 0, static_cast<uint32_t>(col)};
  }

  ColumnAt Resolve(size_t col) const {
    ColRef r = Ref(col);
    switch (r.src) {
      case ColSrc::kSeg:
        return {&seg_cols[r.seg][r.off], seg_rows[r.seg]};
      case ColSrc::kComputed:
        return {};
      case ColSrc::kScan:
      default:
        return {&batch->cols[r.off], pos_to_row};
    }
  }

  Cell Get(size_t col, uint32_t pos) const {
    ColRef r = Ref(col);
    switch (r.src) {
      case ColSrc::kSeg:
        return CellOf(seg_cols[r.seg][r.off], seg_rows[r.seg][pos]);
      case ColSrc::kComputed:
        return computed[r.off][pos];
      case ColSrc::kScan:
      default:
        return CellOf(batch->cols[r.off],
                      pos_to_row != nullptr ? pos_to_row[pos] : pos);
    }
  }
};

/// Evaluates `e` for the `n` positions sel[0..n) of `v` (sel == null is
/// the identity 0..n), writing one cell per position into out[0..n).
/// Temporaries come from `scratch`. Error strings match Expr::Eval; when
/// several rows of a batch would error, which one surfaces may differ
/// from row-at-a-time order (an erroring query still errors). A compare
/// of two numeric operands (uniform numeric columns or numeric literals)
/// runs typed.
Status EvalBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, Cell* out, Arena* scratch);

/// Expr::Test over a batch: out[i] = 1 where the predicate passes.
/// And/Or evaluate the right child only on the rows the left child left
/// undecided — exactly Expr::Test's short-circuit.
Status TestBatch(const Expr& e, const BatchView& v, const uint32_t* sel,
                 size_t n, uint8_t* out, Arena* scratch);

/// Filter kernel: compacts sel[0..n) in place to the positions where `e`
/// passes; returns the surviving count through *out_n.
Status FilterBatch(const Expr& e, const BatchView& v, uint32_t* sel,
                   size_t n, size_t* out_n, Arena* scratch);

/// Selection kernel: *sel becomes the positions of [0, n) of `v` that
/// `filter` passes, allocated from `scratch`, and *out_n their count. A
/// null filter passes every position and leaves *sel null (the identity).
Status SelectBatch(const Expr* filter, const BatchView& v, size_t n,
                   Arena* scratch, uint32_t** sel, size_t* out_n);

/// Hash kernel: out[i] = HashCell(v.Get(col, pos_i)) for the selected
/// positions — one contiguous pass for join build/probe keys, typed over
/// a uniform numeric column.
void HashColumn(const BatchView& v, size_t col, const uint32_t* sel,
                size_t n, uint64_t* out);

/// Loads a mem-scan morsel [begin, end) as zero-copy column borrows from
/// a relation's cached columnar view (rel.Columnar(), resolved once per
/// query by the coordinator), uniform tags included. The Column array
/// itself comes from `scratch`.
void LoadMemBatch(const data::ColumnarView& view, size_t begin, size_t end,
                  Arena* scratch, ColumnBatch* out);

/// Loads a paged-scan morsel (pages [page_begin, page_end)) page-at-a-time:
/// each page is pinned once and its records decode in place straight
/// into `scratch` columns (strings copied into the arena), with no
/// intermediate Tuple — so a warm paged morsel allocates nothing, like a
/// mem one. Each column writes only its tags and the typed arrays its
/// rows use, and records whether the morsel's rows are uniform.
/// `raw_rows` counts decoded rows.
Status LoadPagedBatch(const storage::PagedRelation& rel, size_t page_begin,
                      size_t page_end, Arena* scratch, ColumnBatch* out,
                      uint64_t* raw_rows);

/// Per-worker build-side collector for one join stage: rows land in hash
/// partitions, each stored column-wise in the merged table's layout, so
/// merging a partition is a copy per array. String payloads are copied
/// into the state arena so they outlive the scanned morsel. Tracks which
/// types each column holds, so the merged table knows its uniform
/// columns.
class BuildCollector {
 public:
  /// One column of a partition: a tag per row, and each typed array
  /// row-aligned up to the column's last row of that type (rows past its
  /// end carry another tag).
  struct Col {
    ArenaVec<uint8_t> tags;
    ArenaVec<int64_t> ints;
    ArenaVec<double> doubles;
    ArenaVec<std::string_view> strings;
  };
  struct Part {
    ArenaVec<uint64_t> hashes;
    Col* cols = nullptr;  // ncols
  };

  void Init(size_t ncols, size_t key_col, Arena* state) {
    ncols_ = ncols;
    key_col_ = key_col;
    arena_ = state;
    masks_.assign(ncols, 0);
    for (Part& p : parts_) {
      p.hashes.Init(state);
      p.cols = state->AllocateArray<Col>(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        p.cols[c].tags.Init(state);
        p.cols[c].ints.Init(state);
        p.cols[c].doubles.Init(state);
        p.cols[c].strings.Init(state);
      }
    }
  }

  /// Folds the selected rows of a scan batch into the partitions; the
  /// key hashes are computed into `scratch`.
  void AddBatch(const ColumnBatch& b, const uint32_t* sel, size_t n,
                Arena* scratch);

  const Part& part(size_t p) const { return parts_[p]; }
  size_t ncols() const { return ncols_; }
  /// data::TypeBit of every type column `c` has held.
  unsigned type_mask(size_t c) const { return masks_[c]; }

 private:
  Part parts_[kBatchPartitions];
  std::vector<unsigned> masks_;
  size_t ncols_ = 0;
  size_t key_col_ = 0;
  Arena* arena_ = nullptr;
};

/// Writable row-aligned column storage; a Column views it.
struct ColumnStore {
  uint8_t* tags = nullptr;
  int64_t* ints = nullptr;
  double* doubles = nullptr;
  std::string_view* strings = nullptr;
};

/// A join stage's merged build side, stored column-wise over global
/// build-row ids: partition p owns rows [base, base + rows) and a
/// power-of-two bucket array chaining 1-based row ids (0 = empty)
/// through `next`. Laid out once, merged one partition per worker,
/// read-only at probe time, where a match is emitted as a build-row id.
struct BatchJoinTable {
  struct Part {
    const uint32_t* heads = nullptr;
    uint64_t mask = 0;
    size_t base = 0;
    size_t rows = 0;
  };
  Part parts[kBatchPartitions];
  ColumnStore* store = nullptr;  // written by MergePartition
  Column* cols = nullptr;        // ncols views of `store`
  uint64_t* hashes = nullptr;    // per build row
  uint32_t* next = nullptr;      // per build row: chain link
  /// The key's double image per build row when every key is a number
  /// (the typed probe compares these), else null.
  double* keys = nullptr;
  size_t rows = 0;
  size_t ncols = 0;      // build-side arity
  size_t key_col = 0;    // build key column
  size_t probe_col = 0;  // probe key within the pipeline schema here
};

/// Sizes every partition's row range from `n` collectors and allocates
/// the merged arrays from `arena`: a column gets only the typed arrays
/// its rows use. One worker calls it once every collector is full.
void LayoutJoinTable(const BuildCollector* collectors, size_t n,
                     Arena* arena, BatchJoinTable* table);

/// Copies partition `p` of every collector (in worker order) into its row
/// range, one copy per array, and chains it into p's buckets, allocated
/// from `arena` (the merging worker's state arena).
void MergePartition(const BuildCollector* collectors, size_t n, size_t p,
                    Arena* arena, BatchJoinTable* table);

/// Probe kernel: for each position [0, n) of `v`, in order, appends
/// (position, build row) to *pos / *rows for every build row whose key
/// equals the position's probe key (CompareCells == 0), in chain order.
/// Numeric probe keys against an all-numeric build key run typed.
void ProbeJoin(const BatchJoinTable& table, const BatchView& v, size_t n,
               Arena* scratch, ArenaVec<uint32_t>* pos,
               ArenaVec<uint32_t>* rows);

/// Per-worker open-addressed grouped-aggregation table over arena
/// storage. Folds shaped batch spans a column at a time: group ids for
/// every position first, then each aggregate over its value column, so
/// every group still folds its rows in position order. Exports its
/// partial groups into a GroupAccumulator (GroupAccumulator::FoldPartial)
/// so the cross-worker merge and the deterministic output ordering stay
/// byte-identical to the serial HashAggregate's.
class BatchAggTable {
 public:
  void Init(const std::vector<size_t>* group_by,
            const std::vector<AggSpec>* aggs, Arena* state);

  /// Folds positions sel[0..n) of the shaped view (sel == null =
  /// identity).
  void Fold(const BatchView& v, const uint32_t* sel, size_t n);

  void ExportTo(GroupAccumulator* acc) const;
  size_t groups() const { return ngroups_; }

  /// Single int keys in [0, kDirectKeys) find their group by indexing.
  static constexpr size_t kDirectKeys = 4096;

 private:
  void GroupIds(const BatchView& v, const uint32_t* sel, size_t n,
                uint32_t* gid);
  void FoldAgg(size_t a, const BatchView& v, const uint32_t* sel, size_t n,
               const uint32_t* gid);
  uint32_t FindOrInsert(const Cell* key, uint64_t h);
  void Rehash(size_t nslots);

  const std::vector<size_t>* group_by_ = nullptr;
  const std::vector<AggSpec>* aggs_ = nullptr;
  Arena* arena_ = nullptr;
  // Groups as parallel arena arrays: keys row-major (nkeys per group),
  // agg state (naggs per group).
  ArenaVec<Cell> keys_;
  ArenaVec<double> sums_, mins_, maxs_;
  ArenaVec<uint64_t> counts_;
  ArenaVec<uint64_t> hashes_;  // per group, for cheap rehash/probe
  ArenaVec<uint32_t> gids_;    // the folded positions' group ids
  Cell* key_ = nullptr;        // the folded row's key, one cell per column
  // A single int key -> 1-based group id, 0 = unseen; null when there is
  // not exactly one group key.
  uint32_t* direct_ = nullptr;
  uint32_t* slots_ = nullptr;  // 1-based group ids, 0 = empty
  size_t nslots_ = 0;
  size_t ngroups_ = 0;
};

}  // namespace dbm::query

#endif  // DBM_QUERY_BATCH_H_
