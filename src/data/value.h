// Values, schemas and tuples — the relational face of the heterogeneous
// data model. The paper's data components hold "OO structured data ... or
// a relational table ... or an XML stream"; relations live here, XML in
// xml.h, and objects in object.h.

#ifndef DBM_DATA_VALUE_H_
#define DBM_DATA_VALUE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace dbm::data {

enum class ValueType : uint8_t { kNull, kInt, kDouble, kString };

const char* ValueTypeName(ValueType t);

/// A single relational value. Null is the monostate alternative.
using Value = std::variant<std::monostate, int64_t, double, std::string>;

ValueType TypeOf(const Value& v);
bool IsNull(const Value& v);
std::string ValueToString(const Value& v);

/// Three-valued-free comparison: nulls sort first, numeric types compare
/// numerically across int/double, strings lexicographically. Comparing a
/// number with a string is an error surfaced as InvalidArgument by callers
/// that need it; here numbers sort before strings (deterministic total
/// order for sorting and hashing).
int CompareValues(const Value& a, const Value& b);

/// Hash of a value (for hash joins and grouping): numbers through
/// HashNumeric, strings FNV-1a over their bytes, null the FNV basis.
uint64_t HashValue(const Value& v);

/// Hash of a string payload, identical to HashValue over a string Value —
/// the columnar kernels and GroupAccumulator hash string_views directly so
/// string keys never materialise a temporary std::string on the hot path.
uint64_t HashValue(std::string_view s);

/// Cell-level primitives behind HashValue, exposed so the batch kernels
/// (query/batch.cc) hash contiguous columns without building a Value:
/// numerics hash through their double image (3 and 3.0 hash alike, -0.0
/// normalised), nulls hash to the FNV basis.
uint64_t HashNull();

/// Mixes the double image's 64 bits as one word (the murmur3
/// finaliser); inline, so column kernels pay no call per key.
inline uint64_t HashNumeric(double d) {
  if (d == 0.0) d = 0.0;  // normalise -0.0
  uint64_t h = std::bit_cast<uint64_t>(d) ^ 0x9E3779B97F4A7C15ULL;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

/// Order-sensitive combiner for multi-column keys (group-by hashing).
uint64_t HashCombine(uint64_t seed, uint64_t h);

/// A named, typed column.
struct Field {
  std::string name;
  ValueType type = ValueType::kNull;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// An ordered list of fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  const std::vector<Field>& fields() const { return fields_; }
  size_t size() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of the named column.
  Result<size_t> IndexOf(const std::string& name) const;

  /// Concatenation (for join outputs). Duplicate names get the side
  /// prefixes "l." / "r.".
  static Schema Join(const Schema& left, const Schema& right);

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
};

/// A row. Positions correspond to the governing schema.
struct Tuple {
  std::vector<Value> values;

  Tuple() = default;
  explicit Tuple(std::vector<Value> v) : values(std::move(v)) {}

  size_t size() const { return values.size(); }
  const Value& at(size_t i) const { return values[i]; }

  /// Concatenation for join output.
  static Tuple Concat(const Tuple& l, const Tuple& r);

  bool operator==(const Tuple& other) const;
  std::string ToString() const;
};

/// Validates that a tuple's value types match the schema (null allowed in
/// any column).
Status CheckTuple(const Schema& schema, const Tuple& tuple);

}  // namespace dbm::data

#endif  // DBM_DATA_VALUE_H_
