// Tests for src/linalg: CSR sparse matrices, dense matrices, rank /
// row-space utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/prng.h"
#include "linalg/sparse_matrix.h"
#include "tests/support/dense_matrix.h"

namespace pme::linalg {
namespace {

TEST(SparseMatrixTest, FromTripletsSumsDuplicatesAndDropsZeros) {
  auto m = SparseMatrix::FromTriplets(
                2, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 2, 0.0}, {1, 0, -1.0}})
               .ValueOrDie();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 2u);  // (0,1)=5 and (1,0)=-1; the zero was dropped
  EXPECT_DOUBLE_EQ(m.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 0.0);
}

TEST(SparseMatrixTest, OutOfBoundsTripletRejected) {
  auto r = SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  std::vector<std::vector<double>> dense = {
      {1.0, 0.0, 2.0}, {0.0, 3.0, 0.0}, {4.0, 5.0, 6.0}, {0.0, 0.0, 0.0}};
  SparseMatrix m = SparseMatrix::FromDense(dense);
  std::vector<double> x = {1.0, -1.0, 2.0};
  std::vector<double> y;
  m.Multiply(x, y);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
  EXPECT_DOUBLE_EQ(y[3], 0.0);
}

TEST(SparseMatrixTest, TransposeMultiplyMatchesDense) {
  std::vector<std::vector<double>> dense = {{1.0, 2.0}, {3.0, 4.0},
                                            {5.0, 6.0}};
  SparseMatrix m = SparseMatrix::FromDense(dense);
  std::vector<double> x = {1.0, 0.5, -1.0};
  std::vector<double> y;
  m.TransposeMultiply(x, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 + 1.5 - 5.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0 + 2.0 - 6.0);
}

TEST(SparseMatrixTest, RandomizedAgreementWithDense) {
  Prng prng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 1 + prng.NextBounded(12);
    const size_t cols = 1 + prng.NextBounded(12);
    std::vector<std::vector<double>> dense(rows,
                                           std::vector<double>(cols, 0.0));
    for (auto& row : dense) {
      for (auto& v : row) {
        if (prng.NextDouble() < 0.4) v = prng.NextDouble(-2.0, 2.0);
      }
    }
    SparseMatrix m = SparseMatrix::FromDense(dense);
    std::vector<double> x(cols);
    for (auto& v : x) v = prng.NextDouble(-1.0, 1.0);
    std::vector<double> y;
    m.Multiply(x, y);
    for (size_t r = 0; r < rows; ++r) {
      double expect = 0.0;
      for (size_t c = 0; c < cols; ++c) expect += dense[r][c] * x[c];
      EXPECT_NEAR(y[r], expect, 1e-12);
    }
  }
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(v));
  return b;
}

// The team kernels: Aᵀx assembled from column slices and A·x − b
// assembled from row ranges equal the whole-matrix kernels bit for bit,
// for any cuts.
TEST(SparseMatrixTest, SlicedProductsEqualTheWholeKernelsBitForBit) {
  Prng prng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t rows = 1 + prng.NextBounded(300);
    const size_t cols = 1 + prng.NextBounded(300);
    std::vector<Triplet> triplets;
    for (size_t r = 0; r < rows; ++r) {
      // Some long rows, as knowledge rows are next to invariant rows.
      const size_t len =
          prng.NextDouble() < 0.1 ? cols / 2 : 1 + prng.NextBounded(9);
      for (size_t k = 0; k < len; ++k) {
        triplets.push_back({static_cast<uint32_t>(r),
                            static_cast<uint32_t>(prng.NextBounded(cols)),
                            prng.NextDouble(-2.0, 2.0)});
      }
    }
    const SparseMatrix m =
        std::move(SparseMatrix::FromTriplets(rows, cols, triplets)).value();
    std::vector<double> x(rows), p(cols), b(rows);
    for (double& v : x) {
      v = prng.NextDouble() < 0.2 ? 0.0 : prng.NextDouble(-3.0, 3.0);
    }
    for (double& v : p) v = prng.NextDouble(0.0, 1.0);
    for (double& v : b) v = prng.NextDouble(-1.0, 1.0);

    std::vector<double> whole_t(cols), whole_g(rows);
    m.TransposeMultiplyInto(x, whole_t);
    m.MultiplyMinusInto(p, b, whole_g);

    // 1-4 members with random sorted cuts (empty slices included).
    const size_t members = 1 + prng.NextBounded(4);
    std::vector<size_t> col_cuts{0, cols}, row_cuts{0, rows};
    for (size_t t = 1; t < members; ++t) {
      col_cuts.push_back(prng.NextBounded(cols + 1));
      row_cuts.push_back(prng.NextBounded(rows + 1));
    }
    std::sort(col_cuts.begin(), col_cuts.end());
    std::sort(row_cuts.begin(), row_cuts.end());
    std::vector<double> sliced_t(cols, -7.0), sliced_g(rows, -7.0);
    for (size_t t = 0; t < members; ++t) {
      m.TransposeMultiplySlice(x, sliced_t,
                               m.SliceColumns(col_cuts[t], col_cuts[t + 1]));
      m.MultiplyMinusRows(p, b, sliced_g, row_cuts[t], row_cuts[t + 1]);
    }
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(Bits(sliced_t[c]), Bits(whole_t[c]))
          << "trial " << trial << " col " << c;
    }
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(Bits(sliced_g[r]), Bits(whole_g[r]))
          << "trial " << trial << " row " << r;
    }
  }
}

TEST(SparseMatrixBuilderTest, BuildsRowsIncrementally) {
  SparseMatrixBuilder builder(4);
  builder.BeginRow();
  ASSERT_TRUE(builder.Add(0, 1.0).ok());
  ASSERT_TRUE(builder.Add(3, 2.0).ok());
  const uint32_t cols[] = {1, 2};
  const double values[] = {5.0, 6.0};
  ASSERT_TRUE(builder.AddRow(cols, values, 2).ok());
  auto m = builder.Build().ValueOrDie();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 5.0);
}

// A row whose entries arrive unsorted, with a duplicate column and a
// zero, is sorted, summed in arrival order and loses its zero sums; the
// rows around it are written as they came.
TEST(SparseMatrixBuilderTest, UnsortedRowIsSortedSummedAndLosesItsZeros) {
  SparseMatrixBuilder builder(5);
  builder.BeginRow();
  ASSERT_TRUE(builder.Add(1, 1.0).ok());
  ASSERT_TRUE(builder.Add(4, 2.0).ok());
  builder.BeginRow();
  ASSERT_TRUE(builder.Add(3, 1.5).ok());
  ASSERT_TRUE(builder.Add(1, 2.0).ok());
  ASSERT_TRUE(builder.Add(3, -1.5).ok());  // column 3 sums to zero
  ASSERT_TRUE(builder.Add(0, 0.5).ok());
  ASSERT_TRUE(builder.Add(1, 0.25).ok());
  ASSERT_TRUE(builder.Add(2, 0.0).ok());
  builder.BeginRow();
  ASSERT_TRUE(builder.Add(0, 3.0).ok());
  ASSERT_TRUE(builder.Add(0, 1.0).ok());  // sorted, but a duplicate
  const SparseMatrix m = builder.Build().ValueOrDie();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.row_offsets(), (std::vector<size_t>{0, 2, 4, 5}));
  EXPECT_EQ(m.col_indices(), (std::vector<uint32_t>{1, 4, 0, 1, 0}));
  EXPECT_EQ(m.values(), (std::vector<double>{1.0, 2.0, 0.5, 2.25, 4.0}));
}

// A strided row writes its arithmetic progression of columns; one that
// lands behind the row's last column is sorted in like any other entry.
TEST(SparseMatrixBuilderTest, StridedRowsWriteTheirColumns) {
  SparseMatrixBuilder builder(9);
  builder.BeginRow();
  ASSERT_TRUE(builder.AddStrided(1, 3, 3, 1.0).ok());  // 1, 4, 7
  builder.BeginRow();
  ASSERT_TRUE(builder.AddStrided(5, 1, 2, 2.0).ok());  // 5, 6
  ASSERT_TRUE(builder.AddStrided(0, 5, 2, 1.0).ok());  // 0, 5
  EXPECT_EQ(builder.AddStrided(2, 4, 3, 1.0).code(),   // 2, 6, 10
            StatusCode::kInvalidArgument);
  const SparseMatrix m = builder.Build().ValueOrDie();
  EXPECT_EQ(m.row_offsets(), (std::vector<size_t>{0, 3, 6}));
  EXPECT_EQ(m.col_indices(), (std::vector<uint32_t>{1, 4, 7, 0, 5, 6}));
  EXPECT_EQ(m.values(), (std::vector<double>{1, 1, 1, 1, 3, 2}));
}

TEST(SparseMatrixBuilderTest, AddBeforeBeginRowFails) {
  SparseMatrixBuilder builder(2);
  EXPECT_EQ(builder.Add(0, 1.0).code(), StatusCode::kFailedPrecondition);
}

TEST(SparseMatrixBuilderTest, ColumnOutOfRangeFails) {
  SparseMatrixBuilder builder(2);
  builder.BeginRow();
  EXPECT_EQ(builder.Add(2, 1.0).code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- DenseMatrix

TEST(DenseMatrixTest, RankOfIdentityAndSingular) {
  DenseMatrix id(3, 3);
  for (size_t i = 0; i < 3; ++i) id.At(i, i) = 1.0;
  EXPECT_EQ(id.Rank(), 3u);

  DenseMatrix sing(3, 3);
  // Row 2 = row 0 + row 1.
  sing.At(0, 0) = 1;
  sing.At(0, 1) = 2;
  sing.At(1, 1) = 1;
  sing.At(1, 2) = 1;
  sing.At(2, 0) = 1;
  sing.At(2, 1) = 3;
  sing.At(2, 2) = 1;
  EXPECT_EQ(sing.Rank(), 2u);
}

TEST(DenseMatrixTest, RowSpaceContains) {
  DenseMatrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 1) = 1;
  m.At(1, 1) = 1;
  m.At(1, 2) = 1;
  EXPECT_TRUE(m.RowSpaceContains({1.0, 2.0, 1.0}));   // row0 + row1
  EXPECT_TRUE(m.RowSpaceContains({1.0, 0.0, -1.0}));  // row0 - row1
  EXPECT_FALSE(m.RowSpaceContains({1.0, 0.0, 0.0}));
}

TEST(DenseMatrixTest, AppendRowGrows) {
  DenseMatrix m(0, 0);
  m.AppendRow({1.0, 2.0});
  m.AppendRow({3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
}

}  // namespace
}  // namespace pme::linalg
