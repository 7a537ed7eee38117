// Self-test of the benchmark's correctness checks: each must accept the
// right answer and reject a deliberately wrong one. Run with
//   python3 perfbench/run.py --selftest
// Exits non-zero on the first check that lets a wrong answer through.

#include <cstdio>
#include <vector>

#include "cc/checks.h"

namespace {

using dbm::data::Tuple;
using namespace perfbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void OlapChecks() {
  const std::vector<NumRow> expected = {{0, 10, 12.5, 9}, {1, 4, -3.25, 7}};
  // The machine's row order and cell types differ from the generator's.
  const std::vector<Tuple> right = {
      Tuple({int64_t{1}, int64_t{4}, -3.25, int64_t{7}}),
      Tuple({int64_t{0}, int64_t{10}, 12.5, int64_t{9}})};
  Expect(CompareRows(expected, right).empty(), "olap accepts the right rows");

  std::vector<Tuple> wrong_sum = right;
  wrong_sum[1].values[2] = 12.75;
  Expect(!CompareRows(expected, wrong_sum).empty(),
         "olap rejects a sum off by 0.25");
  std::vector<Tuple> missing = {right[0]};
  Expect(!CompareRows(expected, missing).empty(),
         "olap rejects a missing group");
  std::vector<Tuple> extra = right;
  extra.push_back(Tuple({int64_t{2}, int64_t{1}, 0.0, int64_t{0}}));
  Expect(!CompareRows(expected, extra).empty(), "olap rejects an extra group");
  std::vector<Tuple> wrong_key = right;
  wrong_key[0].values[0] = int64_t{3};
  Expect(!CompareRows(expected, wrong_key).empty(),
         "olap rejects a wrong group key");
  std::vector<Tuple> text = right;
  text[0].values[3] = std::string("7");
  Expect(!CompareRows(expected, text).empty(),
         "olap rejects a non-numeric cell");
}

Tuple Gen(uint64_t i) {
  return Tuple({static_cast<int64_t>(i), static_cast<int64_t>(i % 7),
                static_cast<int64_t>(i * 100), 0.25 * static_cast<double>(i)});
}

std::string Recover(const std::vector<Tuple>& rows, uint64_t acked,
                    uint64_t offered) {
  PrefixCheck check(Gen);
  for (const Tuple& t : rows) {
    if (!check.Visit(t)) break;
  }
  return check.Finish(acked, offered);
}

void IngestChecks() {
  std::vector<Tuple> rows;
  for (uint64_t i = 0; i < 10; ++i) rows.push_back(Gen(i));
  Expect(Recover(rows, 8, 12).empty(),
         "ingest accepts acked rows plus part of the unacked tail");
  Expect(Recover(rows, 10, 10).empty(), "ingest accepts exactly the acked rows");
  Expect(!Recover(rows, 11, 12).empty(), "ingest rejects a lost acked row");
  Expect(!Recover(rows, 5, 9).empty(),
         "ingest rejects more rows than were written");
  std::vector<Tuple> swapped = rows;
  std::swap(swapped[3], swapped[4]);
  Expect(!Recover(swapped, 8, 12).empty(), "ingest rejects reordered rows");
  std::vector<Tuple> dup = rows;
  dup[5] = dup[4];
  Expect(!Recover(dup, 8, 12).empty(), "ingest rejects a duplicated row");
  std::vector<Tuple> changed = rows;
  changed[2].values[3] = 99.0;
  Expect(!Recover(changed, 8, 12).empty(), "ingest rejects a changed value");
  std::vector<Tuple> hole = rows;
  hole.erase(hole.begin() + 6);
  Expect(!Recover(hole, 8, 12).empty(), "ingest rejects a hole");
}

void CrowdChecks() {
  const std::string body = "sensor=7 temp=1.25 battery=50.0 ts=12";
  Expect(CheckBody(body, body).empty(), "crowd accepts the right body");
  Expect(!CheckBody("sensor=7 temp=1.50 battery=50.0 ts=12", body).empty(),
         "crowd rejects a wrong body");
  Expect(!CheckBody("error: index lookup", body).empty(),
         "crowd rejects an error body");
  Expect(CheckDrain(100, 100, 100, 0, 0).empty(),
         "crowd accepts a clean drain");
  Expect(!CheckDrain(100, 98, 98, 0, 0).empty(),
         "crowd rejects requests that never completed");
  Expect(!CheckDrain(100, 97, 97, 3, 0).empty(), "crowd rejects shed requests");
  Expect(!CheckDrain(100, 99, 99, 0, 1).empty(),
         "crowd rejects backpressured requests");
  Expect(!CheckDrain(100, 100, 99, 0, 0).empty(),
         "crowd rejects a completion that was not served");
}

}  // namespace

int main() {
  OlapChecks();
  IngestChecks();
  CrowdChecks();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
