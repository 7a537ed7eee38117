// Tests for the vectorized columnar batch layer (query/batch.h): cell
// primitives vs their Value counterparts, kernel-vs-row-operator
// equivalence across seeds and selectivities, selection-vector edge
// cases, arena reuse, and whole-plan batch engine vs serial row
// operators at dop 1/2/4/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "data/value.h"
#include "fault/injector.h"
#include "obs/alloc_hook.h"
#include "query/batch.h"
#include "query/parallel.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace dbm::query {
namespace {

using data::CompareValues;
using data::HashValue;
using data::Relation;
using data::Schema;
using data::Value;
using data::ValueType;

class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(const std::string& spec, uint64_t seed = 42) {
    fault::Injector& inj = fault::Injector::Default();
    prev_spec_ = inj.spec();
    prev_seed_ = inj.seed();
    EXPECT_TRUE(inj.Configure(spec, seed).ok());
  }
  ~ScopedFaultSpec() {
    (void)fault::Injector::Default().Configure(prev_spec_, prev_seed_);
  }

 private:
  std::string prev_spec_;
  uint64_t prev_seed_;
};

constexpr uint64_t kSeeds[] = {17, 23, 42};

/// Mixed-type relation with nulls sprinkled in: the value-space the cell
/// primitives must mirror exactly. Doubles are multiples of 0.25 so
/// parallel sum reassociation is exact.
Relation MakeMixed(size_t rows, uint64_t seed) {
  Relation rel("mixed", Schema({{"a", ValueType::kInt},
                                {"b", ValueType::kDouble},
                                {"c", ValueType::kString},
                                {"d", ValueType::kInt}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Tuple t;
    t.values.push_back(static_cast<int64_t>(rng.Uniform(100)));
    if (rng.Uniform(10) == 0) {
      t.values.emplace_back();  // null in a double column
    } else {
      t.values.emplace_back(0.25 * static_cast<double>(rng.Uniform(400)));
    }
    t.values.emplace_back("s#" + std::to_string(rng.Uniform(13)));
    if (rng.Uniform(8) == 0) {
      t.values.emplace_back();  // null join/group key
    } else {
      t.values.emplace_back(static_cast<int64_t>(rng.Uniform(10)));
    }
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

/// Loads a whole relation as one batch with an identity view.
struct BatchFixture {
  Arena arena;
  ColumnBatch batch;
  BatchView view;

  explicit BatchFixture(const Relation& rel) {
    LoadMemBatch(rel.Columnar(), 0, rel.rows().size(), &arena, &batch);
    view.batch = &batch;
    view.arity = batch.ncols;
  }
};

std::multiset<std::string> Canon(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const Tuple& t : rows) out.insert(t.ToString());
  return out;
}

std::vector<Tuple> SerialRows(const ParallelPlan& plan) {
  auto root = BuildSerial(plan);
  EXPECT_TRUE(root.ok()) << root.status().ToString();
  std::vector<Tuple> out;
  ExecOptions opt;
  auto stats = Execute(root->get(), &out, opt);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return out;
}

/// The engine's contract: batch results == the serial row-operator
/// reference, order-normalised, at every dop.
void ExpectMatchesSerial(const ParallelPlan& plan,
                         bool expect_nonempty = true) {
  std::multiset<std::string> reference = Canon(SerialRows(plan));
  if (expect_nonempty) {
    EXPECT_FALSE(reference.empty());
  }
  WorkerPool pool(8);
  for (size_t dop : {1u, 2u, 4u, 8u}) {
    ParallelOptions opt;
    opt.dop = dop;
    opt.pool = &pool;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(plan, &out, opt);
    ASSERT_TRUE(stats.ok())
        << "dop=" << dop << ": " << stats.status().ToString();
    EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
    EXPECT_GT(stats->batches, 0u) << "dop=" << dop << " processed no batches";
  }
}

// ---------------------------------------------------------------------------
// Cell primitives mirror their Value counterparts
// ---------------------------------------------------------------------------

TEST(CellTest, RoundTripAndCompareAndHashMatchValueSemantics) {
  std::vector<Value> values = {Value{},
                               Value{int64_t{0}},
                               Value{int64_t{-7}},
                               Value{int64_t{3}},
                               Value{3.0},
                               Value{-0.0},
                               Value{0.0},
                               Value{2.5},
                               Value{std::string("")},
                               Value{std::string("abc")},
                               Value{std::string("abd")}};
  for (const Value& a : values) {
    Cell ca = CellFromValue(a);
    EXPECT_EQ(CompareValues(CellToValue(ca), a), 0) << Tuple({a}).ToString();
    EXPECT_EQ(HashCell(ca), HashValue(a)) << Tuple({a}).ToString();
    for (const Value& b : values) {
      Cell cb = CellFromValue(b);
      EXPECT_EQ(CompareCells(ca, cb), CompareValues(a, b))
          << Tuple({a, b}).ToString();
    }
  }
  // int 3 and double 3.0 hash alike (they compare equal).
  EXPECT_EQ(HashCell(CellFromValue(Value{int64_t{3}})),
            HashCell(CellFromValue(Value{3.0})));
}

TEST(CellTest, TruthinessMatchesExprTest) {
  std::vector<Value> values = {Value{}, Value{int64_t{0}}, Value{int64_t{2}},
                               Value{0.0}, Value{1.5}, Value{std::string("")},
                               Value{std::string("x")}};
  for (const Value& v : values) {
    Tuple t({v});
    auto row = Col(0)->Test(t);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(CellTruthy(CellFromValue(v)), *row) << t.ToString();
  }
}

// ---------------------------------------------------------------------------
// EvalBatch / TestBatch / FilterBatch vs row-at-a-time Expr
// ---------------------------------------------------------------------------

void ExpectEvalMatchesRows(const Relation& rel, const ExprPtr& e) {
  BatchFixture fx(rel);
  size_t n = fx.batch.rows;
  std::vector<Cell> out(n);
  Status st = EvalBatch(*e, fx.view, nullptr, n, out.data(), &fx.arena);
  // Row reference.
  for (size_t i = 0; i < n; ++i) {
    auto row = e->Eval(rel.rows()[i]);
    if (!row.ok()) {
      // Some row errors: the batch call must error with the same message
      // (though possibly for a different row of the batch).
      EXPECT_FALSE(st.ok()) << e->ToString();
      return;
    }
    ASSERT_TRUE(st.ok()) << e->ToString() << ": " << st.ToString();
    EXPECT_EQ(CompareValues(CellToValue(out[i]), *row), 0)
        << e->ToString() << " row " << i;
  }
}

TEST(BatchKernelTest, EvalMatchesRowEvalAcrossSeeds) {
  std::vector<ExprPtr> exprs = {
      Col(0),
      Lit(Value{int64_t{5}}),
      Arith(ArithOp::kAdd, Col(0), Col(3)),        // null propagation
      Arith(ArithOp::kMul, Col(1), Lit(Value{2.0})),
      Arith(ArithOp::kSub, Col(0), Lit(Value{int64_t{50}})),
      Compare(CmpOp::kLt, Col(0), Lit(Value{int64_t{50}})),
      Compare(CmpOp::kEq, Col(2), Lit(Value{std::string("s#3")})),
      And(Gt(Col(0), Lit(Value{int64_t{10}})),
          Lt(Col(1), Lit(Value{50.0}))),
      Or(Eq(Col(3), Lit(Value{int64_t{4}})), Lt(Col(0), Lit(Value{int64_t{3}}))),
      Not(Gt(Col(0), Lit(Value{int64_t{50}}))),
  };
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(512, seed);
    for (const ExprPtr& e : exprs) ExpectEvalMatchesRows(rel, e);
  }
}

TEST(BatchKernelTest, ErrorStringsMatchRowEngine) {
  Relation rel("r", Schema({{"x", ValueType::kInt}, {"s", ValueType::kString}}));
  rel.InsertUnchecked(Tuple({int64_t{1}, "a"}));
  rel.InsertUnchecked(Tuple({int64_t{0}, "b"}));
  BatchFixture fx(rel);
  std::vector<Cell> out(fx.batch.rows);

  ExprPtr div = Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0));
  Status st = EvalBatch(*div, fx.view, nullptr, fx.batch.rows, out.data(),
                        &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "division by zero");

  ExprPtr arith_str = Arith(ArithOp::kAdd, Col(1), Lit(Value{int64_t{1}}));
  st = EvalBatch(*arith_str, fx.view, nullptr, fx.batch.rows, out.data(),
                 &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "arithmetic on string value");

  ExprPtr oob = Col(7);
  st = EvalBatch(*oob, fx.view, nullptr, fx.batch.rows, out.data(),
                 &fx.arena);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "column 7 beyond tuple arity 2");
}

TEST(BatchKernelTest, AndShortCircuitSkipsErroringRightSide) {
  // Expr::Test: And() only Tests the right child when the left side
  // passed, so 10/x on rows with x == 0 never runs. The batch kernel
  // must preserve exactly that.
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({int64_t{0}}));
  rel.InsertUnchecked(Tuple({int64_t{2}}));
  rel.InsertUnchecked(Tuple({int64_t{0}}));
  rel.InsertUnchecked(Tuple({int64_t{5}}));
  ExprPtr guarded =
      And(Ne(Col(0), Lit(Value{int64_t{0}})),
          Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
             Lit(Value{int64_t{1}})));

  BatchFixture fx(rel);
  size_t n = fx.batch.rows;
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  Status st = FilterBatch(*guarded, fx.view, sel.data(), n, &n, &fx.arena);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(n, 2u);  // x=2 (10/2=5>1) and x=5 (10/5=2>1)
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 3u);

  // Or short-circuit: right side only runs where the left was false.
  ExprPtr or_guarded =
      Or(Eq(Col(0), Lit(Value{int64_t{0}})),
         Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
            Lit(Value{int64_t{1}})));
  n = fx.batch.rows;
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  st = FilterBatch(*or_guarded, fx.view, sel.data(), n, &n, &fx.arena);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(n, 4u);  // zeros pass via left, non-zeros via right
}

TEST(BatchKernelTest, FilterSelectivityZeroHalfOne) {
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(777, seed);
    struct Case {
      ExprPtr pred;
    } cases[] = {
        {Gt(Col(0), Lit(Value{int64_t{1000}}))},  // selectivity 0
        {Lt(Col(0), Lit(Value{int64_t{50}}))},    // ~0.5
        {Ge(Col(0), Lit(Value{int64_t{0}}))},     // 1
    };
    for (const Case& c : cases) {
      BatchFixture fx(rel);
      size_t n = fx.batch.rows;
      std::vector<uint32_t> sel(n);
      for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
      Status st =
          FilterBatch(*c.pred, fx.view, sel.data(), n, &n, &fx.arena);
      ASSERT_TRUE(st.ok()) << st.ToString();
      // Row reference.
      std::vector<uint32_t> expect;
      for (size_t i = 0; i < rel.rows().size(); ++i) {
        auto pass = c.pred->Test(rel.rows()[i]);
        ASSERT_TRUE(pass.ok());
        if (*pass) expect.push_back(static_cast<uint32_t>(i));
      }
      ASSERT_EQ(n, expect.size()) << c.pred->ToString();
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sel[i], expect[i]) << c.pred->ToString();
      }
    }
  }
}

TEST(BatchKernelTest, SelectionVectorEdgeCases) {
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 5; ++i) rel.InsertUnchecked(Tuple({i}));
  BatchFixture fx(rel);

  // Empty selection in, empty out.
  size_t n = 0;
  uint32_t* sel = fx.arena.AllocateArray<uint32_t>(1);
  ExprPtr pred = Ge(Col(0), Lit(Value{int64_t{0}}));
  ASSERT_TRUE(FilterBatch(*pred, fx.view, sel, 0, &n, &fx.arena).ok());
  EXPECT_EQ(n, 0u);

  // Full batch passes: sel is the identity.
  std::vector<uint32_t> all(fx.batch.rows);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  n = all.size();
  ASSERT_TRUE(
      FilterBatch(*pred, fx.view, all.data(), n, &n, &fx.arena).ok());
  EXPECT_EQ(n, 5u);

  // Only the last row matches.
  ExprPtr last = Eq(Col(0), Lit(Value{int64_t{4}}));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  n = all.size();
  ASSERT_TRUE(
      FilterBatch(*last, fx.view, all.data(), n, &n, &fx.arena).ok());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(all[0], 4u);

  // Empty batch: a zero-row relation loads and filters cleanly.
  Relation empty("e", Schema({{"x", ValueType::kInt}}));
  BatchFixture efx(empty);
  EXPECT_EQ(efx.batch.rows, 0u);
  size_t en = 0;
  uint32_t* esel = efx.arena.AllocateArray<uint32_t>(1);
  ASSERT_TRUE(FilterBatch(*pred, efx.view, esel, 0, &en, &efx.arena).ok());
  EXPECT_EQ(en, 0u);
}

TEST(BatchKernelTest, HashColumnMatchesHashValue) {
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(256, seed);
    BatchFixture fx(rel);
    size_t n = fx.batch.rows;
    std::vector<uint64_t> hashes(n);
    for (size_t col = 0; col < fx.batch.ncols; ++col) {
      HashColumn(fx.view, col, nullptr, n, hashes.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hashes[i], HashValue(rel.rows()[i].at(col)))
            << "col " << col << " row " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Arena reuse
// ---------------------------------------------------------------------------

TEST(ArenaTest, ResetRetainsChunksAndReusesMemory) {
  Arena arena(4096);
  void* first = arena.Allocate(1000);
  arena.AllocateArray<uint64_t>(100);
  size_t chunks = arena.chunk_count();
  EXPECT_GE(chunks, 1u);
  arena.Reset();
  // Same request pattern after Reset lands in the same retained chunk.
  void* again = arena.Allocate(1000);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.resets(), 1u);
}

TEST(ArenaTest, ArenaVecGrowsAndSurvivesClear) {
  Arena arena;
  ArenaVec<uint32_t> v;
  v.Init(&arena);
  for (uint32_t i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  v.Clear();
  EXPECT_TRUE(v.empty());
  v.PushBack(7);
  EXPECT_EQ(v[0], 7u);
}

#ifdef DBM_ARENA_ASAN
// Under AddressSanitizer the arena poisons what it has not handed out, so
// a kernel reading past its batch arrays inside a chunk is reported.
TEST(ArenaTest, AsanPoisonsUnusedSlack) {
  Arena arena(4096);
  arena.Prime();
  char* p = static_cast<char*>(arena.Allocate(64, 8));
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + 63));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 64));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 4000));
  char* q = static_cast<char*>(arena.Allocate(16, 8));
  EXPECT_FALSE(__asan_address_is_poisoned(q + 15));
  EXPECT_TRUE(__asan_address_is_poisoned(q + 16));
  arena.Reset();
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(q));
  char* again = static_cast<char*>(arena.Allocate(64, 8));
  EXPECT_EQ(again, p);
  EXPECT_FALSE(__asan_address_is_poisoned(again + 63));
  EXPECT_TRUE(__asan_address_is_poisoned(again + 64));
}
#endif

// ---------------------------------------------------------------------------
// Whole-plan equivalence: batch == serial row operators at dop 1/2/4/8
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, FilterProjectEquivalence) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(3000, seed);
    ParallelPlan plan;
    plan.probe.mem = &rel;
    plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
    plan.project = {Col(0), Arith(ArithOp::kAdd, Col(0), Col(3)), Col(2)};
    plan.project_schema = Schema({{"a", ValueType::kInt},
                                  {"ad", ValueType::kInt},
                                  {"c", ValueType::kString}});
    ExpectMatchesSerial(plan);
  }
}

TEST(BatchEngineTest, JoinWithDuplicateKeysEquivalence) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation probe = MakeMixed(2000, seed);
    // Build side keyed on d (0..9 plus nulls): every key matches many
    // probe rows, and some build keys repeat.
    Relation build("dims", Schema({{"k", ValueType::kInt},
                                   {"label", ValueType::kString}}));
    Rng rng(seed + 1);
    for (int64_t k = 0; k < 10; ++k) {
      build.InsertUnchecked(Tuple({k, "dim#" + std::to_string(k)}));
      if (k % 3 == 0) {  // duplicate build keys fan out
        build.InsertUnchecked(Tuple({k, "dup#" + std::to_string(k)}));
      }
    }
    // A null build key: null==null matches per CompareValues.
    build.InsertUnchecked(Tuple({Value{}, std::string("null-dim")}));

    ParallelPlan plan;
    plan.probe.mem = &probe;
    ParallelJoinStage stage;
    stage.build.mem = &build;
    stage.spec = JoinSpec{0, 3};  // dims.k = probe.d
    plan.joins.push_back(std::move(stage));
    ExpectMatchesSerial(plan);
  }
}

TEST(BatchEngineTest, JoinWithEmptyBuildSideProducesNothing) {
  ScopedFaultSpec quiet("");
  Relation probe = MakeMixed(500, 17);
  Relation build("dims", Schema({{"k", ValueType::kInt}}));
  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage stage;
  stage.build.mem = &build;
  stage.spec = JoinSpec{0, 3};
  plan.joins.push_back(std::move(stage));
  ExpectMatchesSerial(plan, /*expect_nonempty=*/false);
}

TEST(BatchEngineTest, TwoStageJoinWithPostFilterEquivalence) {
  ScopedFaultSpec quiet("");
  Relation probe = MakeMixed(1500, 23);
  Relation d1("d1", Schema({{"k", ValueType::kInt}, {"g", ValueType::kInt}}));
  for (int64_t k = 0; k < 10; ++k) d1.InsertUnchecked(Tuple({k, k % 3}));
  Relation d2("d2", Schema({{"g", ValueType::kInt},
                            {"name", ValueType::kString}}));
  for (int64_t g = 0; g < 3; ++g) {
    d2.InsertUnchecked(Tuple({g, "g#" + std::to_string(g)}));
  }
  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage s1;
  s1.build.mem = &d1;
  s1.spec = JoinSpec{0, 3};  // d1.k = probe.d
  plan.joins.push_back(std::move(s1));
  // Pipeline now d1(k,g) ++ probe(a,b,c,d); join d2 on d1.g (column 1).
  ParallelJoinStage s2;
  s2.build.mem = &d2;
  s2.spec = JoinSpec{0, 1};
  plan.joins.push_back(std::move(s2));
  plan.post_filter = Gt(Col(4), Lit(Value{int64_t{20}}));  // probe.a > 20
  ExpectMatchesSerial(plan);
}

TEST(BatchEngineTest, AggregationOneGroupAndAllDistinct) {
  ScopedFaultSpec quiet("");
  for (uint64_t seed : kSeeds) {
    Relation rel = MakeMixed(2500, seed);
    // One group: no GROUP BY columns, global aggregates.
    {
      ParallelPlan plan;
      plan.probe.mem = &rel;
      plan.aggs = {{AggFunc::kCount, 0, "n"},
                   {AggFunc::kSum, 1, "sum_b"},
                   {AggFunc::kMin, 0, "min_a"},
                   {AggFunc::kMax, 1, "max_b"},
                   {AggFunc::kAvg, 1, "avg_b"}};
      ExpectMatchesSerial(plan);
    }
    // All-distinct: group by a near-unique expression source column so
    // almost every row is its own group.
    {
      ParallelPlan plan;
      plan.probe.mem = &rel;
      plan.project = {Col(0), Col(3), Col(1)};
      plan.project_schema = Schema({{"a", ValueType::kInt},
                                    {"d", ValueType::kInt},
                                    {"b", ValueType::kDouble}});
      plan.group_by = {0, 1};  // (a, d): many distinct pairs, null keys too
      plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 2, "s"}};
      ExpectMatchesSerial(plan);
    }
  }
}

TEST(BatchEngineTest, GroupByStringKeysEquivalence) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(2000, 42);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.probe.filter = Gt(Col(0), Lit(Value{int64_t{5}}));
  plan.group_by = {2};  // string column
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  ExpectMatchesSerial(plan);
}

TEST(BatchEngineTest, PagedProbeEquivalence) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(4000, 23);

  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  auto buffer = std::make_shared<storage::BufferManager>("buf", 32,
                                                         /*shards=*/4);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(policy);
  auto paged = storage::PagedRelation::Load(rel, buffer.get(), disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  ParallelPlan mem_plan;
  mem_plan.probe.mem = &rel;
  mem_plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{60}}));
  mem_plan.group_by = {3};
  mem_plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  std::multiset<std::string> reference = Canon(SerialRows(mem_plan));

  ParallelPlan paged_plan = mem_plan;
  paged_plan.probe.mem = nullptr;
  paged_plan.probe.paged = paged->get();
  WorkerPool pool(4);
  for (size_t dop : {2u, 4u}) {
    ParallelOptions opt;
    opt.dop = dop;
    opt.pool = &pool;
    opt.morsel_pages = 2;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(paged_plan, &out, opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
  }
  EXPECT_TRUE(buffer->CheckInvariants().ok());
}

// ---------------------------------------------------------------------------
// Page-at-a-time paged scans
// ---------------------------------------------------------------------------

/// A paged copy of `src` in its own buffer pool.
struct PagedRig {
  std::shared_ptr<storage::DiskComponent> disk =
      std::make_shared<storage::DiskComponent>();
  std::shared_ptr<storage::LruPolicy> policy =
      std::make_shared<storage::LruPolicy>();
  std::shared_ptr<storage::BufferManager> buffer;
  std::unique_ptr<storage::PagedRelation> rel;

  PagedRig(const Relation& src, size_t frames, size_t shards) {
    buffer = std::make_shared<storage::BufferManager>("buf", frames, shards);
    buffer->FindPort("disk")->SetTarget(disk);
    buffer->FindPort("policy")->SetTarget(policy);
    auto loaded = storage::PagedRelation::Load(src, buffer.get(), disk.get());
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (loaded.ok()) rel = std::move(*loaded);
  }
  uint64_t gets() const { return buffer->stats().gets; }
};

/// `paged` (the mem plan with its scans swapped for paged copies) must
/// match the mem plan's serial reference at every dop, and so must the
/// mem plan itself.
void ExpectPagedMatchesMem(const ParallelPlan& mem, const ParallelPlan& paged,
                           WorkerPool* pool, uint64_t seed) {
  std::multiset<std::string> reference = Canon(SerialRows(mem));
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(Canon(SerialRows(paged)), reference) << "seed=" << seed;
  for (size_t dop : {1u, 2u, 4u, 8u}) {
    for (const ParallelPlan* plan : {&mem, &paged}) {
      ParallelOptions opt;
      opt.dop = dop;
      opt.pool = pool;
      opt.morsel_pages = 3;
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(*plan, &out, opt);
      const char* what = plan == &mem ? "mem" : "paged";
      ASSERT_TRUE(stats.ok()) << what << " seed=" << seed << " dop=" << dop
                              << ": " << stats.status().ToString();
      EXPECT_EQ(Canon(out), reference)
          << what << " seed=" << seed << " dop=" << dop;
    }
  }
}

TEST(PagedScanTest, PagedMatchesMemAndSerialWhilePagesEvict) {
  ScopedFaultSpec quiet("");
  WorkerPool pool(8);
  for (uint64_t seed : kSeeds) {
    Relation probe = MakeMixed(3000, seed);
    Relation build = MakeMixed(700, seed + 1);
    // 16 frames in 2 shards: 8 per shard covers one pinned page per
    // worker at dop 8. The build side's ~7 pages make at most 3 morsels,
    // so its 4 frames cover its pins too. Both relations are larger than
    // their pool.
    PagedRig pprobe(probe, 16, 2);
    PagedRig pbuild(build, 4, 1);
    ASSERT_NE(pprobe.rel, nullptr);
    ASSERT_NE(pbuild.rel, nullptr);
    ASSERT_GT(pprobe.rel->pages(), 16u);
    ASSERT_GT(pbuild.rel->pages(), 4u);

    // Filtered scan returning every column: strings and nulls survive
    // the decode.
    ParallelPlan scan;
    scan.probe.mem = &probe;
    scan.probe.filter = Lt(Col(0), Lit(Value{int64_t{40}}));
    ParallelPlan paged_scan = scan;
    paged_scan.probe = {pprobe.rel.get(), nullptr, scan.probe.filter};
    ExpectPagedMatchesMem(scan, paged_scan, &pool, seed);

    // Group-by on the string column over a paged probe.
    ParallelPlan agg;
    agg.probe.mem = &probe;
    agg.group_by = {2};
    agg.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
    ParallelPlan paged_agg = agg;
    paged_agg.probe = {pprobe.rel.get(), nullptr, nullptr};
    ExpectPagedMatchesMem(agg, paged_agg, &pool, seed);

    // Join with a filtered paged build side (null keys on both sides).
    ParallelPlan join;
    join.probe.mem = &probe;
    ParallelJoinStage stage;
    stage.build.mem = &build;
    stage.build.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
    stage.spec.left_col = 3;
    stage.spec.right_col = 3;
    join.joins.push_back(stage);
    join.group_by = {2, 6};
    join.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 5, "s"}};
    ParallelPlan paged_join = join;
    paged_join.probe = {pprobe.rel.get(), nullptr, nullptr};
    paged_join.joins[0].build = {pbuild.rel.get(), nullptr,
                                 stage.build.filter};
    ExpectPagedMatchesMem(join, paged_join, &pool, seed);

    EXPECT_GT(pprobe.buffer->stats().evictions, 0u);
    EXPECT_GT(pbuild.buffer->stats().evictions, 0u);
    EXPECT_TRUE(pprobe.buffer->CheckInvariants().ok());
    EXPECT_TRUE(pbuild.buffer->CheckInvariants().ok());
  }
}

TEST(PagedScanTest, FullScanMakesOneBufferGetPerPage) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(5000, 42);
  PagedRig paged(rel, 8, 2);
  ASSERT_NE(paged.rel, nullptr);
  ParallelPlan plan;
  plan.probe.paged = paged.rel.get();
  plan.group_by = {3};
  plan.aggs = {{AggFunc::kCount, 0, "n"}};
  WorkerPool pool(4);
  for (size_t dop : {1u, 2u, 4u}) {
    ParallelOptions opt;
    opt.dop = dop;
    opt.pool = &pool;
    std::vector<Tuple> out;
    const uint64_t before = paged.gets();
    auto stats = ExecuteParallel(plan, &out, opt);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(paged.gets() - before, paged.rel->pages()) << "dop=" << dop;
  }
}

TEST(PagedScanTest, WarmPagedAggregationIsAllocationFree) {
  ScopedFaultSpec quiet("");
  obs::InstallCountingAllocator();
  ASSERT_TRUE(obs::AllocCountingInstalled());
  Relation rel = MakeMixed(20000, 17);
  PagedRig paged(rel, 1024, 4);  // the whole relation stays resident
  ASSERT_NE(paged.rel, nullptr);
  ParallelPlan plan;
  plan.probe.paged = paged.rel.get();
  plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{70}}));
  plan.group_by = {3};
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  // The same aggregation over the in-memory relation: mem scans borrow
  // their columns and must be allocation-free too.
  ParallelPlan mem_plan = plan;
  mem_plan.probe = {nullptr, &rel, plan.probe.filter};
  WorkerPool pool(4);
  auto run = [&](const ParallelPlan& p, size_t dop) -> uint64_t {
    ParallelOptions opt;
    opt.dop = dop;
    opt.pool = &pool;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(p, &out, opt);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats.ok() ? stats->batches : 0, 0u);
    return stats.ok() ? stats->steady_allocs : ~uint64_t{0};
  };
  // One warm-up query per plan, on one worker: the pool hands every
  // worker its first scratch and state chunk when it is built, so the
  // workers that first draw a morsel in the timed runs below allocate
  // nothing either.
  run(plan, 1);
  run(mem_plan, 1);
  for (const ParallelPlan* p : {&plan, &mem_plan}) {
    for (size_t dop : {1u, 2u, 4u}) {
      EXPECT_EQ(run(*p, dop), 0u)
          << (p == &plan ? "paged" : "mem") << " dop=" << dop;
    }
  }
  EXPECT_EQ(paged.buffer->stats().evictions, 0u);
}

TEST(PagedScanTest, CorruptPageFailsEveryEngineAndReleasesPins) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(2000, 23);
  PagedRig paged(rel, 8, 2);
  ASSERT_NE(paged.rel, nullptr);
  ASSERT_GT(paged.rel->pages(), 6u);
  // Page 5's first record length now chains past the page.
  {
    auto page = paged.buffer->GetPage(5);
    ASSERT_TRUE(page.ok());
    (*page)->bytes[4] = 0xFF;
    (*page)->bytes[5] = 0x7F;
    ASSERT_TRUE(paged.buffer->Unpin(5, true).ok());
  }
  auto expect_released = [&](const std::string& what) {
    for (storage::PageId p = 0; p < paged.rel->pages(); ++p) {
      EXPECT_EQ(paged.buffer->PinCount(p), 0) << what << " page " << p;
    }
    EXPECT_TRUE(paged.buffer->CheckInvariants().ok()) << what;
  };
  ParallelPlan plan;
  plan.probe.paged = paged.rel.get();
  plan.group_by = {3};
  plan.aggs = {{AggFunc::kCount, 0, "n"}};
  ParallelPlan join = plan;
  ParallelJoinStage stage;
  stage.build.paged = paged.rel.get();
  stage.spec.left_col = 0;
  stage.spec.right_col = 0;
  join.joins.push_back(stage);
  WorkerPool pool(4);
  for (const ParallelPlan* p : {&plan, &join}) {
    for (size_t dop : {1u, 2u, 4u}) {
      ParallelOptions opt;
      opt.dop = dop;
      opt.pool = &pool;
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(*p, &out, opt);
      const std::string what = std::string(p == &plan ? "scan" : "join") +
                               " dop=" + std::to_string(dop);
      EXPECT_TRUE(stats.status().IsDataLoss())
          << what << ": " << stats.status().ToString();
      expect_released(what);
    }
  }
}

TEST(BatchEngineTest, WideGroupByRunsOnBatchKernels) {
  // 20 group-by columns: the aggregation table's key buffer is sized from
  // group_by, so no GROUP BY width leaves the batch kernels.
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(2000, 17);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  constexpr size_t kKeyCols[] = {0, 2, 3};  // int, string, nullable int
  for (size_t k = 0; k < 20; ++k) plan.group_by.push_back(kKeyCols[k % 3]);
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  std::multiset<std::string> reference = Canon(SerialRows(plan));
  ASSERT_FALSE(reference.empty());
  WorkerPool pool(4);
  for (size_t dop : {1u, 2u, 4u}) {
    ParallelOptions opt;
    opt.dop = dop;
    opt.pool = &pool;
    std::vector<Tuple> out;
    auto stats = ExecuteParallel(plan, &out, opt);
    ASSERT_TRUE(stats.ok()) << "dop=" << dop << ": "
                            << stats.status().ToString();
    EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
    EXPECT_GT(stats->batches, 0u) << "dop=" << dop;
  }
}

TEST(BatchEngineTest, ErrorsPropagateFromBatchKernels) {
  ScopedFaultSpec quiet("");
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 100; ++i) rel.InsertUnchecked(Tuple({i % 7}));
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.project = {Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0))};
  plan.project_schema = Schema({{"q", ValueType::kInt}});
  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().message(), "division by zero");
}

// ---------------------------------------------------------------------------
// Batch stats & profile annotations
// ---------------------------------------------------------------------------

TEST(BatchEngineTest, StatsCountBatchesAndProfileCarriesSelectivity) {
  ScopedFaultSpec quiet("");
  Relation rel = MakeMixed(5000, 17);
  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.probe.filter = Lt(Col(0), Lit(Value{int64_t{50}}));
  plan.group_by = {3};
  plan.aggs = {{AggFunc::kCount, 0, "n"}};

  WorkerPool pool(4);
  ParallelOptions opt;
  opt.dop = 4;
  opt.pool = &pool;
  QueryProfile profile;
  opt.profile = &profile;
  std::vector<Tuple> out;
  auto stats = ExecuteParallel(plan, &out, opt);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // 5000 rows at 1024/morsel = 5 probe batches.
  EXPECT_EQ(stats->batches, 5u);

  // The filter node carries observed selectivity; the scan node carries
  // the batch count.
  const ProfileNode* agg = &profile.root;
  ASSERT_EQ(agg->name, "aggregate");
  const ProfileNode* filter = &agg->children[0];
  ASSERT_EQ(filter->name.substr(0, 6), "filter");
  EXPECT_GT(filter->selectivity, 0.0);
  EXPECT_LT(filter->selectivity, 1.0);
  const ProfileNode* scan = &filter->children[0];
  EXPECT_EQ(scan->batches, 5u);
  EXPECT_TRUE(profile.ToText().find("selectivity=") != std::string::npos);
  EXPECT_TRUE(profile.ToJson().find("\"batches\":") != std::string::npos);
}

// ---------------------------------------------------------------------------
// Typed kernels vs the Cell path on the same input
// ---------------------------------------------------------------------------

/// `b` with every column's uniform tag cleared: kernels reading it take
/// the Cell path over the very same arrays.
struct Untyped {
  std::vector<Column> cols;
  ColumnBatch batch;
  BatchView view;

  explicit Untyped(const ColumnBatch& b) : cols(b.cols, b.cols + b.ncols) {
    for (Column& c : cols) c.uniform = ValueType::kNull;
    batch = b;
    batch.cols = cols.data();
    view.batch = &batch;
    view.arity = batch.ncols;
  }
};

BatchView ScanView(const ColumnBatch& b) {
  BatchView v;
  v.batch = &b;
  v.arity = b.ncols;
  return v;
}

/// FilterBatch over every row: the surviving positions, or the error.
Result<std::vector<uint32_t>> Filtered(const Expr& e, const BatchView& v,
                                       size_t n, Arena* arena) {
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  size_t kept = 0;
  DBM_RETURN_NOT_OK(FilterBatch(e, v, sel.data(), n, &kept, arena));
  sel.resize(kept);
  return sel;
}

/// Typed and Cell paths agree on `e` over the batch: the same positions
/// pass FilterBatch, EvalBatch yields the same cells, and both agree with
/// row-at-a-time Expr::Test over `rows`.
void ExpectTypedFilterMatchesCell(const ExprPtr& e, const ColumnBatch& b,
                                  const std::vector<Tuple>& rows) {
  Arena arena;
  Untyped cell(b);
  auto typed = Filtered(*e, ScanView(b), b.rows, &arena);
  auto untyped = Filtered(*e, cell.view, b.rows, &arena);
  ASSERT_EQ(typed.ok(), untyped.ok()) << e->ToString();
  if (!typed.ok()) {
    EXPECT_EQ(typed.status().message(), untyped.status().message());
    return;
  }
  EXPECT_EQ(*typed, *untyped) << e->ToString();
  std::vector<uint32_t> expect;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto pass = e->Test(rows[i]);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    if (*pass) expect.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(*typed, expect) << e->ToString();
  std::vector<Cell> a(b.rows), c(b.rows);
  ASSERT_TRUE(EvalBatch(*e, ScanView(b), nullptr, b.rows, a.data(), &arena)
                  .ok());
  ASSERT_TRUE(
      EvalBatch(*e, cell.view, nullptr, b.rows, c.data(), &arena).ok());
  for (size_t i = 0; i < b.rows; ++i) {
    EXPECT_EQ(CompareCells(a[i], c[i]), 0) << e->ToString() << " row " << i;
    EXPECT_EQ(a[i].tag, c[i].tag) << e->ToString() << " row " << i;
  }
}

/// Hashes of every column agree between the typed and Cell paths.
void ExpectTypedHashMatchesCell(const ColumnBatch& b) {
  Untyped cell(b);
  std::vector<uint64_t> typed(b.rows), untyped(b.rows);
  for (size_t col = 0; col < b.ncols; ++col) {
    HashColumn(ScanView(b), col, nullptr, b.rows, typed.data());
    HashColumn(cell.view, col, nullptr, b.rows, untyped.data());
    EXPECT_EQ(typed, untyped) << "col " << col;
  }
}

/// One BatchAggTable folded over the view, exported and finished.
std::vector<Tuple> FoldAll(const BatchView& v, size_t n,
                           const std::vector<size_t>& group_by,
                           const std::vector<AggSpec>& aggs) {
  Arena state;
  BatchAggTable table;
  table.Init(&group_by, &aggs, &state);
  // Two spans, so groups found by the first are looked up by the second.
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  table.Fold(v, sel.data(), n / 2);
  table.Fold(v, sel.data() + n / 2, n - n / 2);
  GroupAccumulator acc(group_by, aggs);
  table.ExportTo(&acc);
  return acc.Finish();
}

void ExpectTypedAggMatchesCell(const ColumnBatch& b,
                               const std::vector<size_t>& group_by,
                               const std::vector<AggSpec>& aggs) {
  Untyped cell(b);
  std::vector<Tuple> typed = FoldAll(ScanView(b), b.rows, group_by, aggs);
  std::vector<Tuple> untyped = FoldAll(cell.view, b.rows, group_by, aggs);
  ASSERT_EQ(typed.size(), untyped.size());
  for (size_t i = 0; i < typed.size(); ++i) {
    EXPECT_EQ(typed[i].ToString(), untyped[i].ToString()) << "group " << i;
  }
}

/// A join table over the whole of `build` (one collector).
struct TableFixture {
  Arena state, scratch;
  BuildCollector collector;
  BatchJoinTable table;

  TableFixture(const Relation& build, size_t key_col, size_t probe_col) {
    ColumnBatch b;
    LoadMemBatch(build.Columnar(), 0, build.rows().size(), &scratch, &b);
    collector.Init(b.ncols, key_col, &state);
    collector.AddBatch(b, nullptr, b.rows, &scratch);
    table.ncols = b.ncols;
    table.key_col = key_col;
    table.probe_col = probe_col;
    LayoutJoinTable(&collector, 1, &state, &table);
    for (size_t p = 0; p < kBatchPartitions; ++p) {
      MergePartition(&collector, 1, p, &state, &table);
    }
  }
};

std::vector<std::pair<uint32_t, uint32_t>> Probed(const BatchJoinTable& t,
                                                  const BatchView& v,
                                                  size_t n) {
  Arena scratch;
  ArenaVec<uint32_t> pos, rows;
  pos.Init(&scratch);
  rows.Init(&scratch);
  ProbeJoin(t, v, n, &scratch, &pos, &rows);
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = 0; i < pos.size(); ++i) out.emplace_back(pos[i], rows[i]);
  return out;
}

/// The typed probe (numeric keys) emits exactly the Cell probe's matches,
/// in the same order.
void ExpectTypedProbeMatchesCell(const Relation& build, size_t key_col,
                                 const Relation& probe, size_t probe_col) {
  TableFixture fx(build, key_col, probe_col);
  ASSERT_NE(fx.table.keys, nullptr) << "build keys are not all numeric";
  BatchFixture pfx(probe);
  ASSERT_TRUE(pfx.batch.cols[probe_col].numeric());
  auto typed = Probed(fx.table, pfx.view, pfx.batch.rows);
  BatchJoinTable cell_table = fx.table;
  cell_table.keys = nullptr;
  Untyped cell(pfx.batch);
  auto untyped = Probed(cell_table, cell.view, pfx.batch.rows);
  EXPECT_EQ(typed, untyped);
  EXPECT_FALSE(typed.empty());
}

TEST(TypedKernelTest, UniformTagsFollowTheData) {
  Relation rel("u", Schema({{"i", ValueType::kInt},
                            {"d", ValueType::kDouble},
                            {"s", ValueType::kString},
                            {"n", ValueType::kInt}}));
  for (int64_t r = 0; r < 10; ++r) {
    Value nullable = r == 7 ? Value{} : Value{r};
    rel.InsertUnchecked(Tuple({r, 0.25 * static_cast<double>(r),
                               "s" + std::to_string(r), nullable}));
  }
  BatchFixture fx(rel);
  EXPECT_EQ(fx.batch.cols[0].uniform, ValueType::kInt);
  EXPECT_EQ(fx.batch.cols[1].uniform, ValueType::kDouble);
  EXPECT_EQ(fx.batch.cols[2].uniform, ValueType::kString);
  EXPECT_EQ(fx.batch.cols[3].uniform, ValueType::kNull);  // holds a null
  PagedRig paged(rel, 8, 1);
  ASSERT_NE(paged.rel, nullptr);
  Arena arena;
  ColumnBatch pb;
  ASSERT_TRUE(LoadPagedBatch(*paged.rel, 0, paged.rel->pages(), &arena, &pb,
                             nullptr)
                  .ok());
  ASSERT_EQ(pb.rows, 10u);
  for (size_t c = 0; c < pb.ncols; ++c) {
    EXPECT_EQ(pb.cols[c].uniform, fx.batch.cols[c].uniform) << "col " << c;
  }
  // A mem column mixing ints and doubles (paged relations hold only
  // their declared type, or null) is not uniform either.
  Relation mixed("m", Schema({{"m", ValueType::kDouble}}));
  mixed.InsertUnchecked(Tuple({int64_t{1}}));
  mixed.InsertUnchecked(Tuple({1.5}));
  BatchFixture mfx(mixed);
  EXPECT_EQ(mfx.batch.cols[0].uniform, ValueType::kNull);
  ExpectTypedFilterMatchesCell(Lt(Col(0), Lit(Value{1.2})), mfx.batch,
                               mixed.rows());
}

TEST(TypedKernelTest, PagedColumnTurnsMixedMidRelation) {
  ScopedFaultSpec quiet("");
  // Column x is all-int for the first half; after that every 5th row
  // holds a null. Column y is all-int throughout.
  Relation rel("turns", Schema({{"x", ValueType::kInt},
                                {"y", ValueType::kInt},
                                {"t", ValueType::kDouble}}));
  Rng rng(17);
  const size_t kRows = 4000;
  for (size_t r = 0; r < kRows; ++r) {
    Value x = Value{static_cast<int64_t>(rng.Uniform(40))};
    if (r >= kRows / 2 && r % 5 == 0) x = Value{};
    rel.InsertUnchecked(Tuple({x, static_cast<int64_t>(rng.Uniform(12)),
                               0.25 * static_cast<double>(rng.Uniform(80))}));
  }
  PagedRig paged(rel, 256, 2);
  ASSERT_NE(paged.rel, nullptr);
  const size_t pages = paged.rel->pages();
  ASSERT_GT(pages, 4u);
  std::vector<ExprPtr> preds = {
      Gt(Col(0), Lit(Value{int64_t{20}})),
      Le(Col(0), Lit(Value{12.5})),
      Ne(Col(0), Col(1)),
      And(Lt(Col(1), Lit(Value{int64_t{6}})), Ge(Col(2), Lit(Value{3.0}))),
  };
  bool saw_typed = false, saw_mixed = false;
  size_t row_base = 0;
  for (size_t page = 0; page < pages; ++page) {
    Arena arena;
    ColumnBatch b;
    ASSERT_TRUE(LoadPagedBatch(*paged.rel, page, page + 1, &arena, &b,
                               nullptr)
                    .ok());
    saw_typed |= b.cols[0].uniform == ValueType::kInt;
    saw_mixed |= b.cols[0].uniform == ValueType::kNull;
    EXPECT_EQ(b.cols[1].uniform, ValueType::kInt);
    std::vector<Tuple> rows(rel.rows().begin() + row_base,
                            rel.rows().begin() + row_base + b.rows);
    for (const ExprPtr& e : preds) ExpectTypedFilterMatchesCell(e, b, rows);
    ExpectTypedHashMatchesCell(b);
    ExpectTypedAggMatchesCell(b, {0},
                              {{AggFunc::kCount, 0, "n"},
                               {AggFunc::kSum, 2, "s"},
                               {AggFunc::kMax, 0, "mx"}});
    row_base += b.rows;
  }
  EXPECT_EQ(row_base, kRows);
  EXPECT_TRUE(saw_typed);
  EXPECT_TRUE(saw_mixed);

  // Whole plans over the paged relation, one page per morsel, so morsels
  // of both kinds meet in one aggregation table and one join.
  ParallelPlan mem_plan;
  mem_plan.probe.mem = &rel;
  mem_plan.probe.filter = Gt(Col(0), Lit(Value{int64_t{3}}));
  mem_plan.group_by = {0};
  mem_plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 2, "s"}};
  ParallelPlan paged_plan = mem_plan;
  paged_plan.probe = {paged.rel.get(), nullptr, mem_plan.probe.filter};
  ParallelJoinStage stage;
  stage.build.paged = paged.rel.get();
  // Null keys filtered out: the build key is all ints, so all-int probe
  // morsels probe typed and the ones holding nulls take the Cell path
  // against the same table.
  stage.build.filter = And(Lt(Col(1), Lit(Value{int64_t{2}})),
                           Ge(Col(0), Lit(Value{int64_t{0}})));
  stage.spec = JoinSpec{0, 0};
  ParallelPlan join_plan = paged_plan;
  join_plan.joins.push_back(stage);
  join_plan.group_by = {3};
  join_plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kMin, 5, "t"}};
  WorkerPool pool(4);
  for (const ParallelPlan* plan : {&paged_plan, &join_plan}) {
    std::multiset<std::string> reference = Canon(SerialRows(*plan));
    ASSERT_FALSE(reference.empty());
    for (size_t dop : {1u, 3u}) {
      ParallelOptions opt;
      opt.dop = dop;
      opt.pool = &pool;
      opt.morsel_pages = 1;
      std::vector<Tuple> out;
      auto stats = ExecuteParallel(*plan, &out, opt);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(Canon(out), reference) << "dop=" << dop;
    }
  }
}

TEST(TypedKernelTest, IntsAbove2To53CompareThroughTheirDoubleImage) {
  ScopedFaultSpec quiet("");
  const int64_t big = int64_t{1} << 53;  // 2^53 + 1 rounds to 2^53
  Relation rel("big", Schema({{"x", ValueType::kInt},
                              {"y", ValueType::kInt}}));
  for (int64_t k = -3; k <= 3; ++k) {
    rel.InsertUnchecked(Tuple({big + k, big - k}));
  }
  BatchFixture fx(rel);
  ASSERT_EQ(fx.batch.cols[0].uniform, ValueType::kInt);
  const double lit = static_cast<double>(big);
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    ExpectTypedFilterMatchesCell(Compare(op, Col(0), Lit(Value{lit})),
                                 fx.batch, rel.rows());
    ExpectTypedFilterMatchesCell(Compare(op, Col(0), Col(1)), fx.batch,
                                 rel.rows());
  }
  // 2^53 and 2^53 + 1 are one double: both pass == 2^53.0.
  Arena arena;
  auto eq = Filtered(*Eq(Col(0), Lit(Value{lit})), fx.view, fx.batch.rows,
                     &arena);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->size(), 2u);
  ExpectTypedHashMatchesCell(fx.batch);
  ExpectTypedAggMatchesCell(fx.batch, {0}, {{AggFunc::kCount, 0, "n"}});
  ExpectTypedProbeMatchesCell(rel, 1, rel, 0);
}

TEST(TypedKernelTest, NaNComparesEqualLikeCompareCells) {
  ScopedFaultSpec quiet("");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation rel("nan", Schema({{"x", ValueType::kDouble},
                              {"y", ValueType::kDouble}}));
  for (int r = 0; r < 12; ++r) {
    rel.InsertUnchecked(Tuple({r % 3 == 0 ? nan : 0.5 * r,
                               r % 4 == 0 ? nan : 2.0}));
  }
  BatchFixture fx(rel);
  ASSERT_EQ(fx.batch.cols[0].uniform, ValueType::kDouble);
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                   CmpOp::kGt, CmpOp::kGe}) {
    ExpectTypedFilterMatchesCell(Compare(op, Col(0), Lit(Value{2.0})),
                                 fx.batch, rel.rows());
    ExpectTypedFilterMatchesCell(Compare(op, Col(0), Col(1)), fx.batch,
                                 rel.rows());
    ExpectTypedFilterMatchesCell(Compare(op, Lit(Value{nan}), Col(1)),
                                 fx.batch, rel.rows());
  }
  ExpectTypedHashMatchesCell(fx.batch);
  ExpectTypedAggMatchesCell(fx.batch, {0},
                            {{AggFunc::kCount, 0, "n"},
                             {AggFunc::kSum, 1, "s"}});
  ExpectTypedProbeMatchesCell(rel, 0, rel, 1);
}

TEST(TypedKernelTest, NegativeZeroAndZeroShareAGroupAndAJoinKey) {
  ScopedFaultSpec quiet("");
  Relation rel("zero", Schema({{"k", ValueType::kDouble},
                               {"v", ValueType::kInt}}));
  for (int64_t r = 0; r < 16; ++r) {
    rel.InsertUnchecked(Tuple({r % 2 == 0 ? -0.0 : 0.0, r}));
  }
  rel.InsertUnchecked(Tuple({1.5, int64_t{99}}));
  BatchFixture fx(rel);
  ExpectTypedHashMatchesCell(fx.batch);
  ExpectTypedAggMatchesCell(fx.batch, {0},
                            {{AggFunc::kCount, 0, "n"},
                             {AggFunc::kSum, 1, "s"}});
  std::vector<size_t> gb = {0};
  std::vector<AggSpec> aggs = {{AggFunc::kCount, 0, "n"}};
  EXPECT_EQ(FoldAll(fx.view, fx.batch.rows, gb, aggs).size(), 2u);
  ExpectTypedProbeMatchesCell(rel, 0, rel, 0);

  ParallelPlan plan;
  plan.probe.mem = &rel;
  plan.group_by = {0};
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 1, "s"}};
  ExpectMatchesSerial(plan);
}

TEST(TypedKernelTest, IntProbeKeyMeetsDoubleBuildKey) {
  ScopedFaultSpec quiet("");
  Relation probe("p", Schema({{"k", ValueType::kInt},
                              {"v", ValueType::kInt}}));
  for (int64_t r = 0; r < 600; ++r) probe.InsertUnchecked(Tuple({r % 40, r}));
  Relation build("b", Schema({{"k", ValueType::kDouble},
                              {"tag", ValueType::kString}}));
  for (int k = 0; k < 40; k += 2) {
    // Whole doubles match int keys; the halves match nothing.
    build.InsertUnchecked(Tuple({static_cast<double>(k), "w"}));
    build.InsertUnchecked(Tuple({k + 0.5, "h"}));
  }
  build.InsertUnchecked(Tuple({-0.0, "negzero"}));  // meets int 0
  ExpectTypedProbeMatchesCell(build, 0, probe, 0);

  ParallelPlan plan;
  plan.probe.mem = &probe;
  ParallelJoinStage stage;
  stage.build.mem = &build;
  stage.spec = JoinSpec{0, 0};
  plan.joins.push_back(stage);
  plan.group_by = {1};
  plan.aggs = {{AggFunc::kCount, 0, "n"}, {AggFunc::kSum, 3, "s"}};
  ExpectMatchesSerial(plan);
}

TEST(TypedKernelTest, SmallAndWideIntKeyDomains) {
  ScopedFaultSpec quiet("");
  Relation rel("dom", Schema({{"small", ValueType::kInt},
                              {"wide", ValueType::kInt},
                              {"v", ValueType::kDouble}}));
  Rng rng(23);
  const int64_t direct = static_cast<int64_t>(BatchAggTable::kDirectKeys);
  for (size_t r = 0; r < 3000; ++r) {
    int64_t wide = static_cast<int64_t>(rng.Uniform(200)) * 1000003 -
                   100000000;  // negatives, and far past the direct range
    if (r % 11 == 0) wide = direct - 1 + static_cast<int64_t>(r % 3);
    rel.InsertUnchecked(Tuple({static_cast<int64_t>(rng.Uniform(30)), wide,
                               0.25 * static_cast<double>(rng.Uniform(64))}));
  }
  BatchFixture fx(rel);
  std::vector<AggSpec> aggs = {{AggFunc::kCount, 0, "n"},
                               {AggFunc::kSum, 2, "s"},
                               {AggFunc::kMin, 2, "mn"},
                               {AggFunc::kMax, 0, "mx"}};
  ExpectTypedAggMatchesCell(fx.batch, {0}, aggs);
  ExpectTypedAggMatchesCell(fx.batch, {1}, aggs);
  ExpectTypedAggMatchesCell(fx.batch, {0, 1}, aggs);
  ExpectTypedAggMatchesCell(fx.batch, {}, aggs);
  for (size_t key : {0u, 1u}) {
    ParallelPlan plan;
    plan.probe.mem = &rel;
    plan.group_by = {key};
    plan.aggs = aggs;
    ExpectMatchesSerial(plan);
  }
}

TEST(TypedKernelTest, ErrorStringsStayExactBesideTypedColumns) {
  ScopedFaultSpec quiet("");
  Relation rel("r", Schema({{"x", ValueType::kInt},
                            {"s", ValueType::kString}}));
  for (int64_t i = 0; i < 6; ++i) {
    rel.InsertUnchecked(Tuple({i % 3, "v" + std::to_string(i)}));
  }
  BatchFixture fx(rel);
  ASSERT_EQ(fx.batch.cols[0].uniform, ValueType::kInt);
  ASSERT_EQ(fx.batch.cols[1].uniform, ValueType::kString);
  Untyped cell(fx.batch);
  Arena arena;
  struct Case {
    ExprPtr e;
    const char* message;
  } cases[] = {
      {Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}), Col(0)),
          Lit(Value{int64_t{1}})),
       "division by zero"},
      {And(Ge(Col(0), Lit(Value{int64_t{0}})),
           Eq(Arith(ArithOp::kAdd, Col(1), Lit(Value{int64_t{1}})),
              Lit(Value{int64_t{1}}))),
       "arithmetic on string value"},
  };
  for (const Case& c : cases) {
    for (const BatchView* v : {&fx.view, &cell.view}) {
      auto got = Filtered(*c.e, *v, fx.batch.rows, &arena);
      ASSERT_FALSE(got.ok()) << c.e->ToString();
      EXPECT_EQ(got.status().message(), c.message);
    }
  }
  // The typed compare on the left decides every row, so the erroring
  // right side never runs: no error.
  ExprPtr guarded = And(Gt(Col(0), Lit(Value{int64_t{5}})),
                        Gt(Arith(ArithOp::kDiv, Lit(Value{int64_t{10}}),
                                 Col(0)),
                           Lit(Value{int64_t{1}})));
  auto got = Filtered(*guarded, fx.view, fx.batch.rows, &arena);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->empty());
}

TEST(BuildCollectorTest, MergedTableHoldsEveryBuildRowAcrossTypes) {
  // The value column changes type from row to row (int, double, string,
  // null), so each partition's typed arrays end at different rows.
  Relation build("b", Schema({{"k", ValueType::kInt},
                              {"v", ValueType::kInt}}));
  Rng rng(31);
  for (int64_t i = 0; i < 700; ++i) {
    Value v;
    switch (rng.Uniform(4)) {
      case 0: v = Value{i}; break;
      case 1: v = Value{0.5 * static_cast<double>(i)}; break;
      case 2: v = Value{"s" + std::to_string(i)}; break;
      default: break;  // null
    }
    build.InsertUnchecked(Tuple({Value{i % 50}, v}));
  }
  TableFixture fx(build, 0, 0);
  ASSERT_EQ(fx.table.rows, build.rows().size());
  EXPECT_EQ(fx.table.cols[0].uniform, ValueType::kInt);
  EXPECT_EQ(fx.table.cols[1].uniform, ValueType::kNull);
  ASSERT_NE(fx.table.keys, nullptr);
  std::multiset<std::string> want, got;
  for (const Tuple& t : build.rows()) want.insert(t.ToString());
  for (size_t r = 0; r < fx.table.rows; ++r) {
    Tuple t;
    for (size_t c = 0; c < fx.table.ncols; ++c) {
      t.values.push_back(CellToValue(CellOf(fx.table.cols[c], r)));
    }
    EXPECT_EQ(fx.table.hashes[r], HashValue(t.values[0]));
    EXPECT_EQ(fx.table.keys[r],
              static_cast<double>(std::get<int64_t>(t.values[0])));
    got.insert(t.ToString());
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace dbm::query
