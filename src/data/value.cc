#include "data/value.h"

#include <sstream>

#include "common/strings.h"

namespace dbm::data {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
  }
  return "?";
}

ValueType TypeOf(const Value& v) {
  switch (v.index()) {
    case 0: return ValueType::kNull;
    case 1: return ValueType::kInt;
    case 2: return ValueType::kDouble;
    case 3: return ValueType::kString;
  }
  return ValueType::kNull;
}

bool IsNull(const Value& v) { return v.index() == 0; }

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0: return "NULL";
    case 1: return std::to_string(std::get<int64_t>(v));
    case 2: {
      std::ostringstream out;
      out << std::get<double>(v);
      return out.str();
    }
    case 3: return std::get<std::string>(v);
  }
  return "?";
}

namespace {
/// Rank for the cross-type total order: null < numbers < strings.
int TypeRank(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kNull: return 0;
    case ValueType::kInt:
    case ValueType::kDouble: return 1;
    case ValueType::kString: return 2;
  }
  return 3;
}
}  // namespace

int CompareValues(const Value& a, const Value& b) {
  int ra = TypeRank(a), rb = TypeRank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1: {
      double da = TypeOf(a) == ValueType::kInt
                      ? static_cast<double>(std::get<int64_t>(a))
                      : std::get<double>(a);
      double db = TypeOf(b) == ValueType::kInt
                      ? static_cast<double>(std::get<int64_t>(b))
                      : std::get<double>(b);
      if (da < db) return -1;
      if (da > db) return 1;
      return 0;
    }
    default: {
      const std::string& sa = std::get<std::string>(a);
      const std::string& sb = std::get<std::string>(b);
      return sa.compare(sb) < 0 ? -1 : (sa == sb ? 0 : 1);
    }
  }
}

namespace {
constexpr uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

uint64_t HashNull() { return kFnvBasis; }

uint64_t HashValue(std::string_view s) {
  return Fnv(s.data(), s.size(), kFnvBasis ^ 0x9E3779B97F4A7C15ULL);
}

uint64_t HashCombine(uint64_t seed, uint64_t h) {
  return (seed ^ h) * kFnvPrime + 0x9E3779B97F4A7C15ULL;
}

uint64_t HashValue(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kNull:
      return HashNull();
    case ValueType::kInt:
      // Hash ints through their double representation so that 3 and 3.0
      // (equal under CompareValues) hash identically.
      return HashNumeric(static_cast<double>(std::get<int64_t>(v)));
    case ValueType::kDouble:
      return HashNumeric(std::get<double>(v));
    case ValueType::kString:
      return HashValue(std::string_view(std::get<std::string>(v)));
  }
  return kFnvBasis;
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("no column '" + name + "' in schema " + ToString());
}

Schema Schema::Join(const Schema& left, const Schema& right) {
  std::vector<Field> fields = left.fields_;
  for (const Field& f : right.fields_) {
    bool clash = false;
    for (const Field& lf : left.fields_) {
      if (lf.name == f.name) {
        clash = true;
        break;
      }
    }
    fields.push_back(Field{clash ? "r." + f.name : f.name, f.type});
  }
  if (fields.size() != left.size() + right.size()) {
    // unreachable; sizes always add up
  }
  // Prefix clashing left-side names too, for symmetry.
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = left.size(); j < fields.size(); ++j) {
      if (fields[j].name == "r." + fields[i].name) {
        fields[i].name = "l." + fields[i].name;
      }
    }
  }
  return Schema(std::move(fields));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.name + ":" + ValueTypeName(f.type));
  }
  return "(" + dbm::Join(parts, ", ") + ")";
}

Tuple Tuple::Concat(const Tuple& l, const Tuple& r) {
  Tuple out;
  out.values.reserve(l.size() + r.size());
  out.values.insert(out.values.end(), l.values.begin(), l.values.end());
  out.values.insert(out.values.end(), r.values.begin(), r.values.end());
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values.size() != other.values.size()) return false;
  for (size_t i = 0; i < values.size(); ++i) {
    if (CompareValues(values[i], other.values[i]) != 0) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (const Value& v : values) parts.push_back(ValueToString(v));
  return "[" + dbm::Join(parts, ", ") + "]";
}

Status CheckTuple(const Schema& schema, const Tuple& tuple) {
  if (tuple.size() != schema.size()) {
    return Status::InvalidArgument(StrFormat(
        "tuple arity %zu does not match schema arity %zu", tuple.size(),
        schema.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (IsNull(tuple.at(i))) continue;
    if (TypeOf(tuple.at(i)) != schema.field(i).type) {
      return Status::InvalidArgument(
          "column '" + schema.field(i).name + "' expects " +
          ValueTypeName(schema.field(i).type) + ", got " +
          ValueTypeName(TypeOf(tuple.at(i))));
    }
  }
  return Status::OK();
}

}  // namespace dbm::data
