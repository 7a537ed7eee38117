// The correctness checks, kept as pure functions over expected and
// actual answers so the self-test can hand each one a deliberately wrong
// answer. Every check returns an empty string on success, else a
// one-line reason.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/value.h"

namespace perfbench {

/// One result row as numbers: group key cells then aggregate cells.
using NumRow = std::vector<double>;

/// olap: compares a query's result set, cell for cell and exactly, with
/// rows computed apart from the machine. Both sides are sorted first
/// (the parallel engine's output order depends on the morsel schedule).
/// Non-numeric cells in `actual` are a mismatch.
std::string CompareRows(std::vector<NumRow> expected,
                        const std::vector<dbm::data::Tuple>& actual);

/// ingest: streams the relation recovered after a restart. It must hold
/// every acknowledged row (the first `acked` of the generated sequence),
/// may hold some of the `offered - acked` unacknowledged ones, and must
/// be an exact prefix of the generated sequence `row(i)`.
class PrefixCheck {
 public:
  explicit PrefixCheck(std::function<dbm::data::Tuple(uint64_t)> row)
      : row_(std::move(row)) {}

  /// Feeds the next recovered row; false once the prefix is broken.
  bool Visit(const dbm::data::Tuple& tuple);
  /// The verdict after the last Visit.
  std::string Finish(uint64_t acked, uint64_t offered) const;
  uint64_t rows() const { return rows_; }

 private:
  std::function<dbm::data::Tuple(uint64_t)> row_;
  uint64_t rows_ = 0;
  std::string error_;
};

/// crowd: a response body against the one recomputed from the generator.
std::string CheckBody(const std::string& body, const std::string& expected);

/// crowd: the swarm's drain identity with nothing refused:
/// issued == completed + shed + backpressured, shed == backpressured == 0,
/// and every completion served.
std::string CheckDrain(uint64_t issued, uint64_t completed, uint64_t served,
                       uint64_t shed, uint64_t backpressured);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
