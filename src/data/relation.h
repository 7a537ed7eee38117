// In-memory relations with attribute statistics (the "standard metadata
// found in traditional databases e.g. attribute statistics, triggers" of
// Fig 2). Statistics can be deliberately perturbed — scenario 3 (intra-
// query adaptation) depends on the optimiser starting from wrong numbers.

#ifndef DBM_DATA_RELATION_H_
#define DBM_DATA_RELATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/value.h"

namespace dbm::data {

/// Equi-width histogram over a numeric column.
struct Histogram {
  double lo = 0;
  double hi = 0;
  std::vector<uint64_t> buckets;

  /// Estimated fraction of values ≤ x.
  double SelectivityLe(double x) const;
  /// Estimated fraction of values = x (uniform-within-bucket assumption).
  double SelectivityEq(double x) const;
  uint64_t total() const;
};

/// Per-column statistics.
struct ColumnStats {
  uint64_t count = 0;
  uint64_t nulls = 0;
  double min = 0;
  double max = 0;
  uint64_t distinct_estimate = 0;
  Histogram histogram;
};

/// Relation-level statistics.
struct RelationStats {
  uint64_t row_count = 0;
  std::map<std::string, ColumnStats> columns;

  /// Multiplies every cardinality by `factor` — the knob for producing the
  /// inaccurate estimates that trigger mid-query re-optimisation.
  void PerturbCardinality(double factor);
};

/// Bit of `t` in a column's type mask (one bit per ValueType present).
inline unsigned TypeBit(ValueType t) { return 1u << static_cast<unsigned>(t); }

/// The uniform tag a type mask describes: the one non-null type present,
/// or kNull when the mask is empty, has several types, or includes null.
inline ValueType UniformType(unsigned mask) {
  for (ValueType t :
       {ValueType::kInt, ValueType::kDouble, ValueType::kString}) {
    if (mask == TypeBit(t)) return t;
  }
  return ValueType::kNull;
}

/// One column of a relation's cached columnar image: per-row type tags
/// plus contiguous typed arrays. Only the arrays the column actually uses
/// are populated (an all-int column leaves `doubles`/`strings` empty).
/// String cells are views into the owning rows' std::string storage —
/// valid until the relation is mutated.
struct ColumnVector {
  ValueType decl = ValueType::kNull;       // declared type (schema)
  /// The one tag every row carries, so its typed array is the whole
  /// column; kNull when rows differ in type, any row is null, or the
  /// relation is empty. Typed batch kernels run only on uniform columns.
  ValueType uniform = ValueType::kNull;
  std::vector<uint8_t> tags;               // ValueType per row
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string_view> strings;
};

/// The whole-relation columnar image the batch kernels scan: the same
/// data as rows(), transposed once into contiguous arrays so a morsel is
/// a slice of flat memory instead of a walk over variant-of-string rows.
struct ColumnarView {
  size_t rows = 0;
  std::vector<ColumnVector> columns;  // one per schema field
};

/// A row-store relation.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  // The columnar cache is an internal mutex-guarded lazily-built image;
  // copies and moves carry the rows and drop the cache (it rebuilds on
  // first use).
  Relation(const Relation& other)
      : name_(other.name_), schema_(other.schema_), rows_(other.rows_) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      name_ = other.name_;
      schema_ = other.schema_;
      rows_ = other.rows_;
      InvalidateColumnar();
    }
    return *this;
  }
  Relation(Relation&& other) noexcept
      : name_(std::move(other.name_)),
        schema_(std::move(other.schema_)),
        rows_(std::move(other.rows_)) {}
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      name_ = std::move(other.name_);
      schema_ = std::move(other.schema_);
      rows_ = std::move(other.rows_);
      InvalidateColumnar();
    }
    return *this;
  }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Appends a type-checked row.
  Status Insert(Tuple tuple);
  /// Appends without checking (bulk load of trusted data).
  void InsertUnchecked(Tuple tuple) {
    rows_.push_back(std::move(tuple));
    InvalidateColumnar();
  }

  /// Columnar image of the relation, built lazily on first use and cached
  /// until the next mutation. String cells are views into the row store;
  /// the reference (and the views) stay valid while the relation is alive
  /// and unmutated. Thread-safe to call concurrently from scan workers.
  const ColumnarView& Columnar() const;

  /// Computes fresh statistics (histogram_buckets per numeric column).
  RelationStats ComputeStatistics(size_t histogram_buckets = 16) const;

  /// Uniform row sample of about `fraction` of rows — the "summary /
  /// lower-quality version" materialisation.
  Relation Sample(double fraction, uint64_t seed) const;

  /// Byte-serialisation (versions, codecs, and network transfer sizing).
  std::vector<uint8_t> Serialize() const;
  static Result<Relation> Deserialize(const std::vector<uint8_t>& bytes);

  /// Approximate in-memory payload size in bytes.
  size_t PayloadBytes() const;

 private:
  void InvalidateColumnar() {
    std::lock_guard<std::mutex> lock(columnar_mu_);
    columnar_.reset();
  }

  std::string name_;
  Schema schema_;
  std::vector<Tuple> rows_;
  mutable std::mutex columnar_mu_;
  mutable std::unique_ptr<ColumnarView> columnar_;
};

/// Deterministic synthetic relation generators used across tests, benches
/// and examples.
namespace gen {

/// "people(id:int, name:string, age:int, city:string)" with `n` rows.
Relation People(size_t n, uint64_t seed);

/// "orders(id:int, person_id:int, amount:double, day:int)"; person_id
/// references People(n_people) with Zipf skew `theta`.
Relation Orders(size_t n, size_t n_people, double theta, uint64_t seed);

/// Sensor readings "readings(seq:int, temperature:double, battery:double)".
Relation SensorReadings(size_t n, uint64_t seed);

}  // namespace gen

}  // namespace dbm::data

#endif  // DBM_DATA_RELATION_H_
