/// ColumnTable: the columnar wave-front Δ-table behind the batch
/// evaluation kernels. The load-bearing invariant is hash compatibility —
/// every typed cell representation must hash exactly like the Value it
/// stands for, because the two sides of a build–probe hash join mix hashes
/// computed from typed columns with hashes computed from probe-pattern
/// Values. The rest pins representation promotion (typed → generic),
/// column gathers, reuse after Reset, column-at-a-time key hashes, the
/// chained-bucket index, and the deterministic grouping order the probe
/// kernel batches by.

#include "common/column_table.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "common/value.h"

namespace deltamon {
namespace {

TEST(CellHashTest, TypedHelpersMatchValueHash) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{1} << 40, int64_t{-7} * 1000003}) {
    EXPECT_EQ(CellHashInt(v), Value(v).Hash()) << v;
  }
  for (const char* s : {"", "a", "supplier", "a longer interned string"}) {
    Value v(s);
    EXPECT_EQ(CellHashSymbol(v.string_id()), v.Hash()) << s;
  }
  for (uint64_t id : {uint64_t{1}, uint64_t{99}, uint64_t{1} << 33}) {
    Oid oid{id, /*type=*/7};
    EXPECT_EQ(CellHashObject(id), Value(oid).Hash()) << id;
  }
}

TEST(ColumnTableTest, CellHashMatchesValueHashAcrossReps) {
  // Column 0 stays int-typed, column 1 symbol-typed, column 2 object-typed,
  // column 3 degrades to generic on the second row (int then double).
  ColumnTable t(4);
  t.AppendCell(0, Value(10));
  t.AppendCell(1, Value("x"));
  t.AppendCell(2, Value(Oid{5, 1}));
  t.AppendCell(3, Value(1));
  t.FinishRow();
  t.AppendCell(0, Value(-3));
  t.AppendCell(1, Value("y"));
  t.AppendCell(2, Value(Oid{6, 1}));
  t.AppendCell(3, Value(2.5));
  t.FinishRow();
  ASSERT_EQ(t.num_rows(), 2u);
  for (size_t row = 0; row < t.num_rows(); ++row) {
    for (size_t col = 0; col < t.num_cols(); ++col) {
      Value v = t.Get(row, col);
      EXPECT_EQ(t.CellHash(row, col), v.Hash()) << row << "," << col;
      EXPECT_TRUE(t.CellEquals(row, col, v));
    }
  }
  // Degrading must not corrupt earlier rows.
  EXPECT_EQ(t.Get(0, 3), Value(1));
  EXPECT_EQ(t.Get(1, 3), Value(2.5));
}

TEST(ColumnTableTest, KeyHashMatchesBetweenTypedAndGenericTables) {
  // Same logical rows, one table typed, one forced generic by a leading
  // null append — KeyHash must agree (a build side may be typed while the
  // probe side degraded, or vice versa).
  ColumnTable typed(2);
  typed.AppendCell(0, Value(7));
  typed.AppendCell(1, Value("k"));
  typed.FinishRow();

  ColumnTable generic(2);
  generic.AppendCell(0, Value());  // null → generic rep
  generic.AppendCell(1, Value());
  generic.FinishRow();
  generic.AppendCell(0, Value(7));
  generic.AppendCell(1, Value("k"));
  generic.FinishRow();

  std::vector<size_t> keys = {0, 1};
  EXPECT_EQ(typed.KeyHash(0, keys), generic.KeyHash(1, keys));
  EXPECT_TRUE(typed.KeyEquals(0, keys, generic, 1, keys));
  EXPECT_FALSE(typed.KeyEquals(0, keys, generic, 0, keys));

  // The column-at-a-time hashes the join kernels use are the same per-row
  // KeyHash, for both representations.
  for (const ColumnTable* t : {&typed, &generic}) {
    std::vector<size_t> hashes;
    t->KeyHashes(keys, &hashes);
    ASSERT_EQ(hashes.size(), t->num_rows());
    for (size_t row = 0; row < t->num_rows(); ++row) {
      EXPECT_EQ(hashes[row], t->KeyHash(row, keys)) << row;
    }
  }
}

/// A source table with an int, a symbol, an object and a generic column.
ColumnTable MixedSource() {
  ColumnTable src(4);
  for (int i = 0; i < 4; ++i) {
    src.AppendCell(0, Value(i * 10));
    src.AppendCell(1, Value(std::string(1, static_cast<char>('a' + i))));
    src.AppendCell(2, Value(Oid{static_cast<uint64_t>(i + 1), 3}));
    src.AppendCell(3, i % 2 == 0 ? Value(i) : Value(i + 0.5));
    src.FinishRow();
  }
  return src;
}

TEST(ColumnTableTest, GatherEqualsPerRowAppend) {
  const ColumnTable src = MixedSource();
  // dst column c comes from src column (c + 1) % 4 (column remapping, as
  // the kernels' ColumnCopier does), through an out-of-order selection
  // with a repeat. An empty selection gathered first appends nothing.
  const std::vector<uint32_t> sel = {3, 0, 2, 2};
  ColumnTable gathered(4);
  ColumnTable appended(4);
  for (size_t c = 0; c < 4; ++c) {
    gathered.Gather(c, src, (c + 1) % 4, {});
    gathered.Gather(c, src, (c + 1) % 4, sel);
  }
  gathered.FinishRows(sel.size());
  for (uint32_t row : sel) {
    for (size_t c = 0; c < 4; ++c) {
      appended.AppendCell(c, src.Get(row, (c + 1) % 4));
    }
    appended.FinishRow();
  }
  ASSERT_EQ(gathered.num_rows(), sel.size());
  for (size_t row = 0; row < sel.size(); ++row) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(gathered.Get(row, c), appended.Get(row, c)) << row << "," << c;
      EXPECT_EQ(gathered.CellHash(row, c), appended.CellHash(row, c));
      EXPECT_TRUE(gathered.CellEqualsCell(row, c, appended, row, c));
    }
  }
  EXPECT_EQ(gathered.Get(0, 0), Value("d"));
  EXPECT_EQ(gathered.Get(1, 3), Value(0));
}

TEST(ColumnTableTest, GatherAcrossMismatchedRepsDegrades) {
  ColumnTable src(1);
  src.AppendCell(0, Value("sym"));
  src.FinishRow();
  ColumnTable dst(1);
  dst.AppendCell(0, Value(1));  // int-typed
  dst.FinishRow();
  const std::vector<uint32_t> sel = {0};
  dst.Gather(0, src, 0, sel);  // symbol into int column → generic
  dst.FinishRows(1);
  EXPECT_EQ(dst.Get(0, 0), Value(1));
  EXPECT_EQ(dst.Get(1, 0), Value("sym"));
  EXPECT_EQ(dst.CellHash(1, 0), Value("sym").Hash());
}

TEST(ColumnTableTest, ResetTableBehavesLikeAFreshOne) {
  const ColumnTable src = MixedSource();
  const std::vector<uint32_t> all = {0, 1, 2, 3};
  // Use a table wider than the next use, and degrade its first column.
  ColumnTable reused(3);
  reused.AppendCell(0, Value(7));
  reused.AppendCell(1, Value("x"));
  reused.AppendCell(2, Value(Oid{9, 3}));
  reused.FinishRow();
  reused.AppendCell(0, Value("now generic"));
  reused.AppendCell(1, Value("y"));
  reused.AppendCell(2, Value(Oid{8, 3}));
  reused.FinishRow();

  // Refill it with other kinds per column — by append and by gather — and
  // compare with a fresh table filled the same way.
  reused.Reset(2);
  ColumnTable fresh(2);
  for (ColumnTable* t : {&reused, &fresh}) {
    EXPECT_TRUE(t->empty());
    EXPECT_EQ(t->num_cols(), 2u);
    t->Gather(0, src, 2, all);  // objects into the degraded column
    t->Gather(1, src, 0, all);  // ints into the symbol column
    t->FinishRows(all.size());
    t->AppendCell(0, Value(Oid{5, 3}));
    t->AppendCell(1, Value(-1));
    t->FinishRow();
  }
  ASSERT_EQ(reused.num_rows(), fresh.num_rows());
  std::vector<size_t> keys = {0, 1};
  std::vector<size_t> reused_hashes;
  std::vector<size_t> fresh_hashes;
  reused.KeyHashes(keys, &reused_hashes);
  fresh.KeyHashes(keys, &fresh_hashes);
  EXPECT_EQ(reused_hashes, fresh_hashes);
  for (size_t row = 0; row < fresh.num_rows(); ++row) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(reused.Get(row, c), fresh.Get(row, c)) << row << "," << c;
      EXPECT_EQ(reused.CellHash(row, c), reused.Get(row, c).Hash());
      EXPECT_TRUE(reused.CellEqualsCell(row, c, fresh, row, c));
    }
  }
}

TEST(ColumnTableTest, BuildIndexFindsAllAndOnlyMatchingRows) {
  ColumnTable t(2);
  const int kRows = 100;
  for (int i = 0; i < kRows; ++i) {
    t.AppendCell(0, Value(i % 7));  // key with duplicates
    t.AppendCell(1, Value(i));
    t.FinishRow();
  }
  ColumnTable::HashIndex idx;
  t.BuildIndex({0}, &idx);
  for (int key = 0; key < 9; ++key) {
    ColumnTable probe(1);
    probe.AppendCell(0, Value(key));
    probe.FinishRow();
    std::vector<int> hits;
    for (uint32_t row = idx.First(probe.KeyHash(0, {0}));
         row != ColumnTable::HashIndex::kNoRow; row = idx.Next(row)) {
      if (t.KeyEquals(row, idx.key_cols, probe, 0, {0})) {
        hits.push_back(static_cast<int>(t.Get(row, 1).AsInt()));
      }
    }
    std::vector<int> expected;
    for (int i = 0; i < kRows; ++i) {
      if (i % 7 == key) expected.push_back(i);
    }
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, expected) << "key=" << key;
  }
}

TEST(ColumnTableTest, EmptyTableIndexAndGrouping) {
  ColumnTable t(1);
  ColumnTable::HashIndex idx;
  t.BuildIndex({0}, &idx);
  EXPECT_EQ(idx.First(12345u), ColumnTable::HashIndex::kNoRow);
  ColumnTable::Grouping g;
  t.GroupByKey({0}, &g);
  EXPECT_TRUE(g.reps.empty());
  EXPECT_TRUE(g.members.empty());
}

TEST(ColumnTableTest, GroupByKeyIsFirstOccurrenceOrderedWithAscendingRows) {
  ColumnTable t(2);
  // Keys appear as b, a, b, c, a → groups in order b, a, c.
  const char* keys[] = {"b", "a", "b", "c", "a"};
  for (int i = 0; i < 5; ++i) {
    t.AppendCell(0, Value(keys[i]));
    t.AppendCell(1, Value(i));
    t.FinishRow();
  }
  ColumnTable::Grouping g;
  t.GroupByKey({0}, &g);
  auto rows = [&g](size_t group) {
    std::span<const uint32_t> m = g.Members(group);
    return std::vector<uint32_t>(m.begin(), m.end());
  };
  ASSERT_EQ(g.reps.size(), 3u);
  EXPECT_EQ(t.Get(g.reps[0], 0), Value("b"));
  EXPECT_EQ(t.Get(g.reps[1], 0), Value("a"));
  EXPECT_EQ(t.Get(g.reps[2], 0), Value("c"));
  EXPECT_EQ(rows(0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(rows(1), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(rows(2), (std::vector<uint32_t>{3}));
}

}  // namespace
}  // namespace deltamon
