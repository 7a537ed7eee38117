// A heap file of variable-length records over buffer-managed pages.
//
// Page layout: [u16 record_count][u16 free_offset][records...], each
// record prefixed with a u16 length. Records never span pages; a record
// larger than the page payload is rejected.
//
// Every read path — Read, Scan, VisitPage and Attach's validation — runs
// on one record walker: it pins a page once, walks the length chain in
// slot order over the frame's bytes, and unpins on every exit. Each
// length is bounds-checked against the page's used bytes, so a corrupt
// slot directory surfaces as DataLoss instead of a read past the frame.

#ifndef DBM_STORAGE_RECORD_FILE_H_
#define DBM_STORAGE_RECORD_FILE_H_

#include <functional>
#include <vector>

#include "common/function_ref.h"
#include "common/result.h"
#include "storage/buffer.h"

namespace dbm::storage {

/// Address of a record: page + slot index within the page.
struct RecordId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;
  bool operator==(const RecordId& other) const {
    return page == other.page && slot == other.slot;
  }
};

class RecordFile {
 public:
  /// `buffer` must have its disk/policy ports bound; `disk` allocates the
  /// file's pages.
  RecordFile(BufferManager* buffer, DiskComponent* disk)
      : buffer_(buffer), disk_(disk) {}

  /// Appends a record, allocating a new page when the tail page is full.
  Result<RecordId> Append(const std::vector<uint8_t>& record);

  /// Re-attaches to pages already on the disk after a restart (the WAL
  /// has been replayed by then): walks page ids in order, validates each
  /// page's slot directory, and stops at the first empty or unreadable
  /// page — the relation's clean prefix. Assumes the file owns the
  /// disk's pages 0..n-1 contiguously (one relation per disk, the
  /// load-then-scan discipline).
  Status Attach();

  /// Reads one record (NotFound when the slot is past the page's record
  /// count).
  Result<std::vector<uint8_t>> Read(const RecordId& id);

  /// Visits every record in file order. The visitor may return false to
  /// stop early.
  Status Scan(
      const std::function<bool(const RecordId&, const std::vector<uint8_t>&)>&
          visitor);

  /// Receives one record in place: (slot, bytes, size). The bytes live in
  /// the pinned frame and are valid only during the call. Returns false
  /// to stop the walk.
  using RecordVisitor = FunctionRef<bool(uint16_t, const uint8_t*, size_t)>;

  /// Pins page `pid` once, hands its records to `visit` in slot order
  /// and unpins, whatever the outcome. DataLoss when a record runs past
  /// the page's used bytes.
  Status VisitPage(PageId pid, RecordVisitor visit);

  size_t record_count() const { return record_count_; }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Maximum record payload a page can hold.
  static constexpr size_t kMaxRecord = kPageSize - 4 - 2;

 private:
  BufferManager* buffer_;
  DiskComponent* disk_;
  std::vector<PageId> pages_;
  size_t record_count_ = 0;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_RECORD_FILE_H_
