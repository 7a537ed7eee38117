#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/join.h"
#include "query/paged_source.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace dbm::storage {
namespace {

struct Rig {
  std::shared_ptr<DiskComponent> disk = std::make_shared<DiskComponent>();
  std::shared_ptr<ReplacementPolicy> policy = std::make_shared<LruPolicy>();
  std::shared_ptr<BufferManager> buffer;

  explicit Rig(size_t frames = 4) {
    buffer = std::make_shared<BufferManager>("buf", frames);
    buffer->FindPort("disk")->SetTarget(disk);
    buffer->FindPort("policy")->SetTarget(policy);
  }
};

TEST(TupleCodecTest, RoundTripAllTypes) {
  data::Tuple t({data::Value{}, int64_t{-42}, 3.25, std::string("hello")});
  auto back = DecodeTuple(EncodeTuple(t), 4);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == t);
  // Wrong arity / truncation rejected.
  EXPECT_FALSE(DecodeTuple(EncodeTuple(t), 3).ok());  // trailing bytes
  auto bytes = EncodeTuple(t);
  bytes.pop_back();
  EXPECT_FALSE(DecodeTuple(bytes, 4).ok());
}

TEST(TupleCodecTest, RejectsUnknownTypeTag) {
  // Tag 9 names no value type: the record must not decode "ok" to a
  // short tuple whose later at(c) reads out of range.
  std::vector<uint8_t> bytes = {9, 9, 9, 9};
  auto t = DecodeTuple(bytes, 4);
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsIoError()) << t.status().ToString();
  // A bad tag after good values is rejected too.
  std::vector<uint8_t> mixed = EncodeTuple(data::Tuple({int64_t{7}}));
  mixed.push_back(200);
  EXPECT_TRUE(DecodeTuple(mixed, 2).status().IsIoError());
}

TEST(PagedRelationTest, CorruptPageFailsReadAtAndScanWithoutLeakingPins) {
  Rig rig(4);
  data::Relation people = data::gen::People(200, 5);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  ASSERT_GT((*paged)->pages(), 2u);
  // Page ordinal 1 is page id 1 on a fresh disk. Its first record's
  // length now chains past the page.
  const PageId pid = 1;
  {
    auto page = rig.buffer->GetPage(pid);
    ASSERT_TRUE(page.ok());
    (*page)->bytes[4] = 0xFF;
    (*page)->bytes[5] = 0x7F;
    ASSERT_TRUE(rig.buffer->Unpin(pid, true).ok());
  }
  auto expect_released = [&] {
    for (PageId p = 0; p < (*paged)->pages(); ++p) {
      EXPECT_EQ(rig.buffer->PinCount(p), 0) << "page " << p;
    }
    EXPECT_TRUE(rig.buffer->CheckInvariants().ok());
  };
  auto read = (*paged)->ReadAt(1, 0);
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
  expect_released();
  auto fine = (*paged)->ReadAt(0, 0);
  ASSERT_TRUE(fine.ok());
  EXPECT_TRUE(fine->has_value());
  Status scan = (*paged)->Scan([](const data::Tuple&) { return true; });
  EXPECT_TRUE(scan.IsDataLoss()) << scan.ToString();
  expect_released();

  query::PagedSource source(paged->get());
  std::vector<data::Tuple> out;
  auto run = query::Execute(&source, &out, query::ExecOptions{});
  EXPECT_TRUE(run.status().IsDataLoss()) << run.status().ToString();
  expect_released();
}

TEST(PagedRelationTest, ScanMakesOneBufferGetPerPage) {
  Rig rig(3);
  data::Relation people = data::gen::People(500, 3);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  uint64_t before = rig.buffer->stats().gets;
  size_t rows = 0;
  ASSERT_TRUE((*paged)->Scan([&](const data::Tuple&) {
    ++rows;
    return true;
  }).ok());
  EXPECT_EQ(rows, 500u);
  EXPECT_EQ(rig.buffer->stats().gets - before, (*paged)->pages());

  before = rig.buffer->stats().gets;
  query::PagedSource source(paged->get());
  std::vector<data::Tuple> out;
  ASSERT_TRUE(query::Execute(&source, &out, query::ExecOptions{}).ok());
  EXPECT_EQ(out.size(), 500u);
  EXPECT_EQ(rig.buffer->stats().gets - before, (*paged)->pages());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i] == people.rows()[i]) << i;
  }
}

TEST(PagedRelationTest, LoadScanRoundTrip) {
  Rig rig;
  data::Relation people = data::gen::People(500, 3);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->rows(), 500u);
  EXPECT_GT((*paged)->pages(), 3u);

  auto back = (*paged)->ToRelation();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), people.size());
  for (size_t i = 0; i < people.size(); ++i) {
    EXPECT_TRUE(back->rows()[i] == people.rows()[i]) << i;
  }
  // With a 4-frame pool the scan genuinely paged.
  EXPECT_GT(rig.buffer->stats().evictions, 0u);
}

TEST(PagedRelationTest, AppendTypeChecked) {
  Rig rig;
  data::Relation empty("t", data::Schema({{"x", data::ValueType::kInt}}));
  auto paged = PagedRelation::Load(empty, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE((*paged)->Append(data::Tuple({int64_t{1}})).ok());
  EXPECT_FALSE((*paged)->Append(data::Tuple({std::string("no")})).ok());
  EXPECT_EQ((*paged)->rows(), 1u);
}

TEST(PagedRelationTest, ReadAtCursorSemantics) {
  Rig rig;
  data::Relation people = data::gen::People(50, 5);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  auto first = (*paged)->ReadAt(0, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE(**first == people.rows()[0]);
  // Past-the-end slot signals page exhaustion, not an error.
  auto past = (*paged)->ReadAt(0, 9999);
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->has_value());
  auto no_page = (*paged)->ReadAt(9999, 0);
  ASSERT_TRUE(no_page.ok());
  EXPECT_FALSE(no_page->has_value());
}

TEST(PagedSourceTest, QueryOverPagedDataMatchesMemSource) {
  Rig rig(3);  // tiny pool: the join must page
  data::Relation orders = data::gen::Orders(800, 60, 0.4, 7);
  data::Relation people = data::gen::People(60, 8);
  auto paged_orders =
      PagedRelation::Load(orders, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged_orders.ok());

  query::HashJoin paged_join(
      std::make_unique<query::PagedSource>(paged_orders->get()),
      std::make_unique<query::MemSource>(&people), query::JoinSpec{1, 0});
  std::vector<query::Tuple> via_paged;
  ASSERT_TRUE(query::Execute(&paged_join, &via_paged, {}).ok());

  query::HashJoin mem_join(std::make_unique<query::MemSource>(&orders),
                           std::make_unique<query::MemSource>(&people),
                           query::JoinSpec{1, 0});
  std::vector<query::Tuple> via_mem;
  ASSERT_TRUE(query::Execute(&mem_join, &via_mem, {}).ok());

  ASSERT_EQ(via_paged.size(), via_mem.size());
  std::multiset<std::string> a, b;
  for (const auto& t : via_paged) a.insert(t.ToString());
  for (const auto& t : via_mem) b.insert(t.ToString());
  EXPECT_EQ(a, b);
  EXPECT_GT(rig.buffer->stats().misses, 10u);  // real page traffic
}

}  // namespace
}  // namespace dbm::storage
