#include "cc/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <variant>

namespace perfbench {

namespace {

std::string RowText(const NumRow& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", row[i]);
    s += buf;
  }
  return s + ")";
}

}  // namespace

std::string CompareRows(std::vector<NumRow> expected,
                        const std::vector<dbm::data::Tuple>& actual) {
  std::vector<NumRow> got;
  got.reserve(actual.size());
  for (const dbm::data::Tuple& t : actual) {
    NumRow row;
    for (const dbm::data::Value& v : t.values) {
      if (const int64_t* i = std::get_if<int64_t>(&v)) {
        row.push_back(static_cast<double>(*i));
      } else if (const double* d = std::get_if<double>(&v)) {
        row.push_back(*d);
      } else {
        return "non-numeric cell in result row " + t.ToString();
      }
    }
    got.push_back(std::move(row));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  if (got.size() != expected.size()) {
    return "result has " + std::to_string(got.size()) + " rows, expected " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) {
      return "row " + std::to_string(i) + " is " + RowText(got[i]) +
             ", expected " + RowText(expected[i]);
    }
  }
  return "";
}

bool PrefixCheck::Visit(const dbm::data::Tuple& tuple) {
  if (!error_.empty()) return false;
  const dbm::data::Tuple expected = row_(rows_);
  if (!(tuple == expected)) {
    error_ = "recovered row " + std::to_string(rows_) + " is " +
             tuple.ToString() + ", generated " + expected.ToString();
    return false;
  }
  ++rows_;
  return true;
}

std::string PrefixCheck::Finish(uint64_t acked, uint64_t offered) const {
  if (!error_.empty()) return error_;
  if (rows_ < acked) {
    return "restart lost acknowledged rows: recovered " +
           std::to_string(rows_) + " of " + std::to_string(acked);
  }
  if (rows_ > offered) {
    return "restart recovered " + std::to_string(rows_) +
           " rows, more than the " + std::to_string(offered) + " written";
  }
  return "";
}

std::string CheckBody(const std::string& body, const std::string& expected) {
  if (body == expected) return "";
  return "response body '" + body + "', expected '" + expected + "'";
}

std::string CheckDrain(uint64_t issued, uint64_t completed, uint64_t served,
                       uint64_t shed, uint64_t backpressured) {
  if (issued != completed + shed + backpressured) {
    return "drain identity broken: issued " + std::to_string(issued) +
           " != completed " + std::to_string(completed) + " + shed " +
           std::to_string(shed) + " + backpressured " +
           std::to_string(backpressured);
  }
  if (shed != 0 || backpressured != 0) {
    return "load below capacity was refused: shed " + std::to_string(shed) +
           ", backpressured " + std::to_string(backpressured);
  }
  if (served != completed) {
    return std::to_string(completed - served) +
           " admitted requests completed without being served";
  }
  return "";
}

}  // namespace perfbench
