#include "storage/paged_relation.h"

#include <cstring>

namespace dbm::storage {

using data::Tuple;
using data::Value;
using data::ValueType;

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

}  // namespace

std::vector<uint8_t> EncodeTuple(const Tuple& tuple) {
  std::vector<uint8_t> out;
  for (const Value& v : tuple.values) {
    out.push_back(static_cast<uint8_t>(data::TypeOf(v)));
    switch (data::TypeOf(v)) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        PutU64(&out, static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        double d = std::get<double>(v);
        std::memcpy(&bits, &d, sizeof(bits));
        PutU64(&out, bits);
        break;
      }
      case ValueType::kString: {
        const std::string& s = std::get<std::string>(v);
        PutU32(&out, static_cast<uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
        break;
      }
    }
  }
  return out;
}

Status detail::UnknownTypeTag(uint8_t tag) {
  return Status::IoError("unknown value type tag " + std::to_string(tag));
}

Result<Tuple> DecodeTuple(const uint8_t* bytes, size_t size, size_t arity) {
  Tuple tuple;
  tuple.values.reserve(arity);
  TupleSink sink{&tuple};
  DBM_RETURN_NOT_OK(DecodeRecord(bytes, size, arity, sink));
  return tuple;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Load(
    const data::Relation& rel, BufferManager* buffer, DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  auto paged = std::unique_ptr<PagedRelation>(
      new PagedRelation(rel.name(), rel.schema(), std::move(file)));
  for (const Tuple& row : rel.rows()) {
    DBM_RETURN_NOT_OK(paged->Append(row));
  }
  return paged;
}

Result<std::unique_ptr<PagedRelation>> PagedRelation::Recover(
    std::string name, data::Schema schema, BufferManager* buffer,
    DiskComponent* disk) {
  auto file = std::make_unique<RecordFile>(buffer, disk);
  DBM_RETURN_NOT_OK(file->Attach());
  return std::unique_ptr<PagedRelation>(new PagedRelation(
      std::move(name), std::move(schema), std::move(file)));
}

Status PagedRelation::Append(const Tuple& tuple) {
  DBM_RETURN_NOT_OK(data::CheckTuple(schema_, tuple));
  std::vector<uint8_t> rec = EncodeTuple(tuple);
  DBM_RETURN_NOT_OK(file_->Append(rec).status());
  return Status::OK();
}

Status PagedRelation::Scan(
    const std::function<bool(const Tuple&)>& visitor) const {
  const size_t arity = schema_.size();
  Status decode_error;
  for (size_t page = 0; page < pages(); ++page) {
    bool stop = false;
    DBM_RETURN_NOT_OK(VisitPage(
        page, [&](uint16_t, const uint8_t* bytes, size_t size) {
          auto tuple = DecodeTuple(bytes, size, arity);
          if (!tuple.ok()) decode_error = tuple.status();
          stop = !tuple.ok() || !visitor(*tuple);
          return !stop;
        }));
    if (stop) break;
  }
  return decode_error;
}

Status PagedRelation::VisitPage(size_t page_ordinal,
                                RecordFile::RecordVisitor visit) const {
  if (page_ordinal >= file_->pages().size()) return Status::OK();
  return file_->VisitPage(file_->pages()[page_ordinal], visit);
}

Result<std::optional<data::Tuple>> PagedRelation::ReadAt(
    size_t page_ordinal, uint16_t slot) const {
  std::optional<data::Tuple> out;
  Status decoded;
  DBM_RETURN_NOT_OK(VisitPage(
      page_ordinal, [&](uint16_t s, const uint8_t* bytes, size_t size) {
        if (s != slot) return true;
        auto tuple = DecodeTuple(bytes, size, schema_.size());
        if (tuple.ok()) {
          out = std::move(*tuple);
        } else {
          decoded = tuple.status();
        }
        return false;
      }));
  DBM_RETURN_NOT_OK(decoded);
  return out;
}

Result<data::Relation> PagedRelation::ToRelation() const {
  data::Relation rel(name_, schema_);
  DBM_RETURN_NOT_OK(Scan([&](const Tuple& t) {
    rel.InsertUnchecked(t);
    return true;
  }));
  return rel;
}

}  // namespace dbm::storage
