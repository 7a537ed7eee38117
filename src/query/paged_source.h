// A scan operator over a PagedRelation: query pulls flow through the
// getpage component, so buffer hits/misses/evictions are real for every
// query touching paged data. The scan runs page-at-a-time — each page is
// pinned once (one getpage per page, not per row), its records are
// decoded in place into a reused buffer, and Next() emits from that
// buffer until it drains.

#ifndef DBM_QUERY_PAGED_SOURCE_H_
#define DBM_QUERY_PAGED_SOURCE_H_

#include <vector>

#include "query/operator.h"
#include "storage/paged_relation.h"

namespace dbm::query {

class PagedSource : public Operator {
 public:
  explicit PagedSource(const storage::PagedRelation* rel) : rel_(rel) {}

  const Schema& schema() const override { return rel_->schema(); }
  std::string name() const override {
    return "paged-scan(" + rel_->name() + ")";
  }
  Status Open() override {
    page_ = 0;
    buffered_.clear();
    next_ = 0;
    return Status::OK();
  }
  Result<Step> Next(SimTime now) override {
    while (next_ == buffered_.size()) {
      if (page_ == rel_->pages()) return Step::End();
      DBM_RETURN_NOT_OK(LoadPage(page_++));
    }
    return Emit(std::move(buffered_[next_++]), now);
  }
  Status Close() override { return Status::OK(); }

 private:
  /// Decodes every record of page `page` into buffered_.
  Status LoadPage(size_t page) {
    buffered_.clear();
    next_ = 0;
    const size_t arity = rel_->schema().size();
    Status decoded;
    DBM_RETURN_NOT_OK(rel_->VisitPage(
        page, [&](uint16_t, const uint8_t* bytes, size_t size) {
          Tuple& tuple = buffered_.emplace_back();
          tuple.values.reserve(arity);
          storage::TupleSink sink{&tuple};
          decoded = storage::DecodeRecord(bytes, size, arity, sink);
          return decoded.ok();
        }));
    if (!decoded.ok()) buffered_.clear();
    return decoded;
  }

  const storage::PagedRelation* rel_;
  size_t page_ = 0;
  std::vector<Tuple> buffered_;  // the current page's tuples
  size_t next_ = 0;              // next buffered tuple to emit
};

}  // namespace dbm::query

#endif  // DBM_QUERY_PAGED_SOURCE_H_
