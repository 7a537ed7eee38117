// Relations materialised onto buffer-managed pages.
//
// The in-memory Relation is the convenient form; PagedRelation is the
// same data living in a RecordFile, so scans exercise the getpage path —
// queries run against the fine-grained storage components rather than a
// vector. Tuples are encoded per-row with the same tagged-value format
// the Relation serialiser uses.
//
// Scans run page-at-a-time: VisitPage pins a page once and hands its
// records over in place, and DecodeRecord decodes one record straight
// into a sink — a Tuple for the row paths, ColumnBatch arrays for the
// batch engine (query/batch.cc) — with one set of checks and error
// strings for both.

#ifndef DBM_STORAGE_PAGED_RELATION_H_
#define DBM_STORAGE_PAGED_RELATION_H_

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "data/relation.h"
#include "storage/record_file.h"

namespace dbm::storage {

/// Encodes one tuple (schema-less tagged values).
std::vector<uint8_t> EncodeTuple(const data::Tuple& tuple);

namespace detail {
inline uint64_t LoadLe(const uint8_t* p, int n) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}
Status UnknownTypeTag(uint8_t tag);
}  // namespace detail

/// The one tuple decoder: decodes the `arity` tagged values of the
/// record `bytes[0, size)` into `sink`, column by column, through
/// sink.Null(c) / Int(c, int64_t) / Double(c, double) /
/// String(c, std::string_view). String views point into `bytes` — a sink
/// that keeps them copies them. On error the sink may hold a partial row.
template <typename Sink>
Status DecodeRecord(const uint8_t* bytes, size_t size, size_t arity,
                    Sink& sink) {
  size_t pos = 0;
  for (size_t c = 0; c < arity; ++c) {
    if (pos >= size) return Status::IoError("truncated tuple");
    const uint8_t tag = bytes[pos++];
    switch (static_cast<data::ValueType>(tag)) {
      case data::ValueType::kNull:
        sink.Null(c);
        break;
      case data::ValueType::kInt:
        if (size - pos < 8) return Status::IoError("truncated u64");
        sink.Int(c, static_cast<int64_t>(detail::LoadLe(bytes + pos, 8)));
        pos += 8;
        break;
      case data::ValueType::kDouble: {
        if (size - pos < 8) return Status::IoError("truncated u64");
        const uint64_t bits = detail::LoadLe(bytes + pos, 8);
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        sink.Double(c, d);
        pos += 8;
        break;
      }
      case data::ValueType::kString: {
        if (size - pos < 4) return Status::IoError("truncated u32");
        const size_t len = detail::LoadLe(bytes + pos, 4);
        pos += 4;
        if (len > size - pos) {
          return Status::IoError("truncated string value");
        }
        sink.String(c, std::string_view(
                           reinterpret_cast<const char*>(bytes + pos), len));
        pos += len;
        break;
      }
      default:
        return detail::UnknownTypeTag(tag);
    }
  }
  if (pos != size) return Status::IoError("trailing bytes after tuple");
  return Status::OK();
}

/// DecodeRecord's Tuple sink: appends each value to `tuple`.
struct TupleSink {
  data::Tuple* tuple;
  void Null(size_t) { tuple->values.emplace_back(); }
  void Int(size_t, int64_t v) { tuple->values.emplace_back(v); }
  void Double(size_t, double v) { tuple->values.emplace_back(v); }
  void String(size_t, std::string_view s) {
    tuple->values.emplace_back(std::string(s));
  }
};

/// Decodes a tuple with `arity` values.
Result<data::Tuple> DecodeTuple(const uint8_t* bytes, size_t size,
                                size_t arity);
inline Result<data::Tuple> DecodeTuple(const std::vector<uint8_t>& bytes,
                                       size_t arity) {
  return DecodeTuple(bytes.data(), bytes.size(), arity);
}

class PagedRelation {
 public:
  /// Bulk-loads `rel` into a fresh record file over `buffer`/`disk`.
  static Result<std::unique_ptr<PagedRelation>> Load(
      const data::Relation& rel, BufferManager* buffer,
      DiskComponent* disk);

  /// Re-attaches to a relation already persisted on `disk` — the
  /// restart path, after storage::Recover() has replayed the WAL onto
  /// the page file. Rebuilds the page list and row count from the
  /// on-disk clean prefix; `name`/`schema` come from the caller (the
  /// catalog, in a full system).
  static Result<std::unique_ptr<PagedRelation>> Recover(
      std::string name, data::Schema schema, BufferManager* buffer,
      DiskComponent* disk);

  const std::string& name() const { return name_; }
  const data::Schema& schema() const { return schema_; }
  size_t rows() const { return file_->record_count(); }
  size_t pages() const { return file_->pages().size(); }

  /// Appends one (type-checked) tuple.
  Status Append(const data::Tuple& tuple);

  /// Visits every tuple in order; visitor returns false to stop.
  Status Scan(const std::function<bool(const data::Tuple&)>& visitor) const;

  /// Page-at-a-time scan primitive: pins page `page_ordinal` once and
  /// hands each record to `visit` in slot order, in place (decode it with
  /// DecodeRecord; the bytes are valid only during the call). Visits
  /// nothing when the ordinal is past the last page. DataLoss when the
  /// page's slot directory is corrupt.
  Status VisitPage(size_t page_ordinal,
                   RecordFile::RecordVisitor visit) const;

  /// Point read: the tuple at (page ordinal, slot), decoded in place, or
  /// nullopt when the page or slot does not exist. Errors on malformed
  /// data only. Scans use VisitPage, never a ReadAt loop.
  Result<std::optional<data::Tuple>> ReadAt(size_t page_ordinal,
                                            uint16_t slot) const;

  /// Materialises back into an in-memory Relation.
  Result<data::Relation> ToRelation() const;

 private:
  PagedRelation(std::string name, data::Schema schema,
                std::unique_ptr<RecordFile> file)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        file_(std::move(file)) {}

  std::string name_;
  data::Schema schema_;
  std::unique_ptr<RecordFile> file_;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_PAGED_RELATION_H_
