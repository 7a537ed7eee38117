#include "storage/record_file.h"

#include <cstring>

namespace dbm::storage {

namespace {

uint16_t GetU16(const Page& page, size_t off) {
  return static_cast<uint16_t>(page.bytes[off] |
                               (page.bytes[off + 1] << 8));
}
void PutU16(Page* page, size_t off, uint16_t v) {
  page->bytes[off] = static_cast<uint8_t>(v & 0xFF);
  page->bytes[off + 1] = static_cast<uint8_t>(v >> 8);
}

constexpr size_t kHeader = 4;  // count + free offset

Status RecordRunsPastPage(PageId pid) {
  return Status::DataLoss("record runs past the used bytes of page " +
                          std::to_string(pid));
}

/// The record walker: hands each record of a pinned page to
/// `fn(slot, bytes, size)` in slot order until `fn` returns false. Every
/// length is checked against the page's free offset (its used bytes)
/// before the record is touched. `*chained`, when non-null, receives
/// whether the walk ended exactly at the free offset.
template <typename Fn>
Status WalkRecords(PageId pid, const Page& page, Fn&& fn,
                   bool* chained = nullptr) {
  const uint16_t count = GetU16(page, 0);
  const size_t used = GetU16(page, 2);
  if (count > 0 && (used < kHeader || used > kPageSize)) {
    return RecordRunsPastPage(pid);
  }
  size_t off = kHeader;
  for (uint16_t s = 0; s < count; ++s) {
    if (off + 2 > used) return RecordRunsPastPage(pid);
    const size_t len = GetU16(page, off);
    if (len > used - off - 2) return RecordRunsPastPage(pid);
    const uint8_t* bytes = page.bytes.data() + off + 2;
    off += 2 + len;
    if (!fn(s, bytes, len)) break;
  }
  if (chained != nullptr) *chained = off == used;
  return Status::OK();
}

/// Pins `pid`, walks it, and unpins on every path — the walk's error
/// (when there is one) wins over the unpin's.
template <typename Fn>
Status PinAndWalk(BufferManager* buffer, PageId pid, Fn&& fn,
                  bool* chained = nullptr) {
  DBM_ASSIGN_OR_RETURN(Page * page, buffer->GetPage(pid));
  Status walked = WalkRecords(pid, *page, fn, chained);
  Status unpinned = buffer->Unpin(pid, false);
  return walked.ok() ? unpinned : walked;
}

}  // namespace

Result<RecordId> RecordFile::Append(const std::vector<uint8_t>& record) {
  if (record.size() > kMaxRecord) {
    return Status::InvalidArgument("record too large for a page");
  }
  const size_t need = 2 + record.size();

  PageId target = kInvalidPage;
  if (!pages_.empty()) {
    PageId tail = pages_.back();
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(tail));
    uint16_t free_off = GetU16(*page, 2);
    bool fits = free_off + need <= kPageSize;
    DBM_RETURN_NOT_OK(buffer_->Unpin(tail, false));
    if (fits) target = tail;
  }
  if (target == kInvalidPage) {
    target = disk_->Allocate();
    DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetFreshPage(target));
    PutU16(page, 0, 0);
    PutU16(page, 2, kHeader);
    DBM_RETURN_NOT_OK(buffer_->Unpin(target, true));
    pages_.push_back(target);
  }

  DBM_ASSIGN_OR_RETURN(Page * page, buffer_->GetPage(target));
  uint16_t count = GetU16(*page, 0);
  uint16_t free_off = GetU16(*page, 2);
  PutU16(page, free_off, static_cast<uint16_t>(record.size()));
  std::memcpy(page->bytes.data() + free_off + 2, record.data(),
              record.size());
  PutU16(page, 0, static_cast<uint16_t>(count + 1));
  PutU16(page, 2, static_cast<uint16_t>(free_off + need));
  DBM_RETURN_NOT_OK(buffer_->Unpin(target, true));
  ++record_count_;
  return RecordId{target, count};
}

Status RecordFile::Attach() {
  pages_.clear();
  record_count_ = 0;
  for (PageId pid = 0; pid < disk_->page_count(); ++pid) {
    uint16_t count = 0;
    bool chained = false;
    Status walked = PinAndWalk(
        buffer_, pid,
        [&count](uint16_t, const uint8_t*, size_t) {
          ++count;
          return true;
        },
        &chained);
    if (!walked.ok() && !walked.IsDataLoss()) return walked;
    // A torn slot (DataLoss from the disk) or a malformed directory
    // (DataLoss from the walker) past the prefix ends the relation — the
    // torn-tail rule again. So does a freshly allocated page a crash left
    // empty (count == 0), or lengths that do not chain exactly to the
    // free offset.
    if (!walked.ok() || count == 0 || !chained) break;
    pages_.push_back(pid);
    record_count_ += count;
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> RecordFile::Read(const RecordId& id) {
  std::vector<uint8_t> out;
  bool found = false;
  DBM_RETURN_NOT_OK(PinAndWalk(
      buffer_, id.page, [&](uint16_t slot, const uint8_t* bytes, size_t n) {
        if (slot != id.slot) return true;
        out.assign(bytes, bytes + n);
        found = true;
        return false;
      }));
  if (!found) return Status::NotFound("slot out of range");
  return out;
}

Status RecordFile::Scan(
    const std::function<bool(const RecordId&, const std::vector<uint8_t>&)>&
        visitor) {
  std::vector<uint8_t> rec;
  for (PageId pid : pages_) {
    bool stop = false;
    DBM_RETURN_NOT_OK(PinAndWalk(
        buffer_, pid, [&](uint16_t slot, const uint8_t* bytes, size_t n) {
          rec.assign(bytes, bytes + n);
          stop = !visitor(RecordId{pid, slot}, rec);
          return !stop;
        }));
    if (stop) break;
  }
  return Status::OK();
}

Status RecordFile::VisitPage(PageId pid, RecordVisitor visit) {
  return PinAndWalk(buffer_, pid, visit);
}

}  // namespace dbm::storage
