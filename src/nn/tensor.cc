#include "nn/tensor.h"

#include "nn/simd.h"

namespace lmkg::nn {
namespace {

// --- bit-compatibility contract of the MatMul kernels -----------------------
//
// Every kernel below partitions the columns of an output row into the
// same two regions, determined only by the column count n and the
// build-time lane width:
//
//   vector region [0, n - n % simd::kLanes)  — simd::MulAdd per element
//   scalar tail   [n - n % simd::kLanes, n)  — `o[j] += a * b[j]`
//
// and accumulates over l (the contraction dimension) in ascending order.
// Skipped exact-zero contributions change no accumulator bits (modulo the
// sign of zero, which compares equal). A given output row therefore gets
// bit-identical results no matter which kernel processes it — sparse vs
// dense dispatch, 4-row block vs single-row remainder — which is what
// lets the batched estimation path promise batch == per-query equality
// (tests/batch_test.cc) while the kernels vectorize 8-wide under AVX2.

// Rows of A processed together by the blocked kernels: each pass over a
// B-row serves kRowBlock output rows, cutting memory traffic on the
// (usually larger) right-hand operand by the same factor.
constexpr size_t kRowBlock = 4;

// Below this fraction of nonzero entries in the left operand, the
// zero-skipping single-row kernel beats the register-blocked one (the
// block kernel can only skip a column when all kRowBlock rows are zero
// there, which almost never happens across distinct sparse encodings).
constexpr double kSparseDensityCutoff = 0.35;

// Nonzero fraction of m, estimated from an evenly strided sample.
double SampleDensity(const Matrix& m) {
  const size_t total = m.size();
  if (total == 0) return 1.0;
  const size_t samples = std::min<size_t>(total, 4096);
  const size_t stride = total / samples;
  const float* d = m.data();
  size_t nonzero = 0;
  for (size_t s = 0; s < samples; ++s)
    nonzero += d[s * stride] != 0.0f ? 1 : 0;
  return static_cast<double>(nonzero) / static_cast<double>(samples);
}

// Scalar tail of an axpy: o[j] += a * b[j] over [begin, end). Shared by
// the sparse and dense kernels so tail columns see one op sequence.
inline void AxpyTail(float a, const float* b, float* o, size_t begin,
                     size_t end) {
  for (size_t j = begin; j < end; ++j) o[j] += a * b[j];
}

// o[0..n) += a * b[0..n), vector region + scalar tail. The vector region
// is walked four vectors per iteration (loop overhead, not data
// dependencies, limits a memory-accumulated axpy); the grouping does not
// affect results — every element sees the same single MulAdd.
inline void AxpyRow(float a, const float* b, float* o, size_t n) {
  const size_t nv = n - n % simd::kLanes;
  const simd::Vec av = simd::Broadcast(a);
  size_t j = 0;
  for (; j + 4 * simd::kLanes <= nv; j += 4 * simd::kLanes) {
    const float* bj = b + j;
    float* oj = o + j;
    const simd::Vec b0 = simd::Load(bj);
    const simd::Vec b1 = simd::Load(bj + simd::kLanes);
    const simd::Vec b2 = simd::Load(bj + 2 * simd::kLanes);
    const simd::Vec b3 = simd::Load(bj + 3 * simd::kLanes);
    simd::Store(oj, simd::MulAdd(av, b0, simd::Load(oj)));
    simd::Store(oj + simd::kLanes,
                simd::MulAdd(av, b1, simd::Load(oj + simd::kLanes)));
    simd::Store(oj + 2 * simd::kLanes,
                simd::MulAdd(av, b2, simd::Load(oj + 2 * simd::kLanes)));
    simd::Store(oj + 3 * simd::kLanes,
                simd::MulAdd(av, b3, simd::Load(oj + 3 * simd::kLanes)));
  }
  for (; j < nv; j += simd::kLanes)
    simd::Store(o + j,
                simd::MulAdd(av, simd::Load(b + j), simd::Load(o + j)));
  AxpyTail(a, b, o, nv, n);
}

// out rows [row_begin, row_end) of a * b, single-row axpy form with the
// per-row zero skip — the fast path for sparse 0/1 query encodings.
// One register-resident output chunk of a sparse row: 8 accumulators
// stay in registers across the entire l sweep, so the axpy does no
// output loads or stores per nonzero at all — only the B-row chunk is
// streamed. Per element this is the same ascending-l MulAdd sequence as
// AxpyRow; only the residence of the accumulator changes, not the
// arithmetic.
inline void SparseRowChunk8(const float* arow, const float* bchunk,
                            float* ochunk, size_t k, size_t bstride) {
  simd::Vec acc0 = simd::Zero(), acc1 = simd::Zero();
  simd::Vec acc2 = simd::Zero(), acc3 = simd::Zero();
  simd::Vec acc4 = simd::Zero(), acc5 = simd::Zero();
  simd::Vec acc6 = simd::Zero(), acc7 = simd::Zero();
  for (size_t l = 0; l < k; ++l, bchunk += bstride) {
    const float av = arow[l];
    if (av == 0.0f) continue;
    const simd::Vec v = simd::Broadcast(av);
    acc0 = simd::MulAdd(v, simd::Load(bchunk), acc0);
    acc1 = simd::MulAdd(v, simd::Load(bchunk + simd::kLanes), acc1);
    acc2 = simd::MulAdd(v, simd::Load(bchunk + 2 * simd::kLanes), acc2);
    acc3 = simd::MulAdd(v, simd::Load(bchunk + 3 * simd::kLanes), acc3);
    acc4 = simd::MulAdd(v, simd::Load(bchunk + 4 * simd::kLanes), acc4);
    acc5 = simd::MulAdd(v, simd::Load(bchunk + 5 * simd::kLanes), acc5);
    acc6 = simd::MulAdd(v, simd::Load(bchunk + 6 * simd::kLanes), acc6);
    acc7 = simd::MulAdd(v, simd::Load(bchunk + 7 * simd::kLanes), acc7);
  }
  simd::Store(ochunk, simd::Add(simd::Load(ochunk), acc0));
  simd::Store(ochunk + simd::kLanes,
              simd::Add(simd::Load(ochunk + simd::kLanes), acc1));
  simd::Store(ochunk + 2 * simd::kLanes,
              simd::Add(simd::Load(ochunk + 2 * simd::kLanes), acc2));
  simd::Store(ochunk + 3 * simd::kLanes,
              simd::Add(simd::Load(ochunk + 3 * simd::kLanes), acc3));
  simd::Store(ochunk + 4 * simd::kLanes,
              simd::Add(simd::Load(ochunk + 4 * simd::kLanes), acc4));
  simd::Store(ochunk + 5 * simd::kLanes,
              simd::Add(simd::Load(ochunk + 5 * simd::kLanes), acc5));
  simd::Store(ochunk + 6 * simd::kLanes,
              simd::Add(simd::Load(ochunk + 6 * simd::kLanes), acc6));
  simd::Store(ochunk + 7 * simd::kLanes,
              simd::Add(simd::Load(ochunk + 7 * simd::kLanes), acc7));
}

void MatMulRowsSparse(const Matrix& a, const Matrix& b, Matrix* out,
                      size_t row_begin, size_t row_end) {
  const size_t k = a.cols(), n = b.cols();
  constexpr size_t kChunk = 8 * simd::kLanes;
  const size_t nchunk = n - n % kChunk;
  // Running B-row pointer instead of b.row(l) inside the loop: a
  // conditional row() call makes GCC reload the Matrix members and
  // re-multiply the offset per nonzero l, costing ~35% on skip-heavy
  // encodings.
  const float* bbase = b.row(0);
  for (size_t i = row_begin; i < row_end; ++i) {
    const float* arow = a.row(i);
    float* orow = out->row(i);
    // Register-resident chunks first (the common case: hidden widths are
    // multiples of kChunk), re-scanning the cheap zero mask per chunk.
    size_t j0 = 0;
    for (; j0 < nchunk; j0 += kChunk)
      SparseRowChunk8(arow, bbase + j0, orow + j0, k, n);
    // Memory-accumulated axpy over whatever columns remain.
    if (j0 < n) {
      const float* brow = bbase;
      for (size_t l = 0; l < k; ++l, brow += n) {
        const float av = arow[l];
        if (av == 0.0f) continue;
        AxpyRow(av, brow + j0, orow + j0, n - j0);
      }
    }
  }
}

// Column tile of the register-tiled dense kernel, in vector registers:
// kRowBlock x kColVecs accumulators live in registers across the whole l
// sweep, so the inner loop does no output loads or stores at all (the
// classic GEMM micro-kernel shape; 4 x 2 = 8 YMM accumulators under
// AVX2, leaving registers for the 4 broadcasts and 2 B loads).
constexpr size_t kColVecs = 2;

// out rows [row_begin, row_end) of a * b, register-tiled over the vector
// column region; tail columns go through the same AxpyTail as the sparse
// kernel (see the bit-compatibility contract above).
void MatMulRows(const Matrix& a, const Matrix& b, Matrix* out,
                size_t row_begin, size_t row_end) {
  const size_t k = a.cols(), n = b.cols();
  const size_t nv = n - n % simd::kLanes;
  constexpr size_t kTile = kColVecs * simd::kLanes;
  const float* bbase = b.row(0);  // running pointers, not b.row(l) calls
  size_t i = row_begin;
  for (; i + kRowBlock <= row_end; i += kRowBlock) {
    const float* arows[kRowBlock] = {a.row(i), a.row(i + 1), a.row(i + 2),
                                     a.row(i + 3)};
    float* orows[kRowBlock] = {out->row(i), out->row(i + 1),
                               out->row(i + 2), out->row(i + 3)};
    size_t j0 = 0;
    // Full 4 x (kColVecs * kLanes) register tiles. The accumulators are
    // named scalars, not arrays: GCC at -O2 does not fully unroll the
    // r/c loops of an array formulation and spills the accumulators to
    // the stack, halving throughput.
    for (; j0 + kTile <= nv; j0 += kTile) {
      simd::Vec acc00 = simd::Zero(), acc01 = simd::Zero();
      simd::Vec acc10 = simd::Zero(), acc11 = simd::Zero();
      simd::Vec acc20 = simd::Zero(), acc21 = simd::Zero();
      simd::Vec acc30 = simd::Zero(), acc31 = simd::Zero();
      const float* b0 = bbase + j0;
      for (size_t l = 0; l < k; ++l, b0 += n) {
        const simd::Vec bv0 = simd::Load(b0);
        const simd::Vec bv1 = simd::Load(b0 + simd::kLanes);
        simd::Vec av = simd::Broadcast(arows[0][l]);
        acc00 = simd::MulAdd(av, bv0, acc00);
        acc01 = simd::MulAdd(av, bv1, acc01);
        av = simd::Broadcast(arows[1][l]);
        acc10 = simd::MulAdd(av, bv0, acc10);
        acc11 = simd::MulAdd(av, bv1, acc11);
        av = simd::Broadcast(arows[2][l]);
        acc20 = simd::MulAdd(av, bv0, acc20);
        acc21 = simd::MulAdd(av, bv1, acc21);
        av = simd::Broadcast(arows[3][l]);
        acc30 = simd::MulAdd(av, bv0, acc30);
        acc31 = simd::MulAdd(av, bv1, acc31);
      }
      simd::Store(orows[0] + j0, acc00);
      simd::Store(orows[0] + j0 + simd::kLanes, acc01);
      simd::Store(orows[1] + j0, acc10);
      simd::Store(orows[1] + j0 + simd::kLanes, acc11);
      simd::Store(orows[2] + j0, acc20);
      simd::Store(orows[2] + j0 + simd::kLanes, acc21);
      simd::Store(orows[3] + j0, acc30);
      simd::Store(orows[3] + j0 + simd::kLanes, acc31);
    }
    // Narrower 4 x kLanes tiles finish the vector region.
    for (; j0 < nv; j0 += simd::kLanes) {
      simd::Vec acc0 = simd::Zero(), acc1 = simd::Zero();
      simd::Vec acc2 = simd::Zero(), acc3 = simd::Zero();
      const float* b0 = bbase + j0;
      for (size_t l = 0; l < k; ++l, b0 += n) {
        const simd::Vec bv = simd::Load(b0);
        acc0 = simd::MulAdd(simd::Broadcast(arows[0][l]), bv, acc0);
        acc1 = simd::MulAdd(simd::Broadcast(arows[1][l]), bv, acc1);
        acc2 = simd::MulAdd(simd::Broadcast(arows[2][l]), bv, acc2);
        acc3 = simd::MulAdd(simd::Broadcast(arows[3][l]), bv, acc3);
      }
      simd::Store(orows[0] + j0, acc0);
      simd::Store(orows[1] + j0, acc1);
      simd::Store(orows[2] + j0, acc2);
      simd::Store(orows[3] + j0, acc3);
    }
    // Scalar tail columns, same zero-skip + op as the sparse kernel.
    if (nv < n) {
      for (size_t r = 0; r < kRowBlock; ++r) {
        const float* brow = bbase;
        for (size_t l = 0; l < k; ++l, brow += n) {
          const float av = arows[r][l];
          if (av == 0.0f) continue;
          AxpyTail(av, brow, orows[r], nv, n);
        }
      }
    }
  }
  MatMulRowsSparse(a, b, out, i, row_end);
}

// Dot product with a fixed shape: one vector accumulator over ascending
// l, fixed reduction tree, scalar tail. Every row of a * bᵀ goes through
// this exact sequence, so row results are independent of row blocking.
inline float DotRow(const float* a, const float* b, size_t k) {
  const size_t kv = k - k % simd::kLanes;
  simd::Vec acc = simd::Zero();
  size_t l = 0;
  for (; l < kv; l += simd::kLanes)
    acc = simd::MulAdd(simd::Load(a + l), simd::Load(b + l), acc);
  float sum = simd::ReduceAdd(acc);
  for (; l < k; ++l) sum += a[l] * b[l];
  return sum;
}

// One register-resident output chunk of a unit-valued sparse row: pure
// adds of B rows selected by the index list — no zero scan, no branch
// misprediction, no broadcast. add(w, acc) == fma(1.0f, w, acc) exactly
// (the product is exact), so the result matches the dense kernels bit
// for bit when the indices are the ascending nonzero columns.
inline void SparseUnitRowChunk8(const uint32_t* cols, size_t count,
                                const float* bchunk, float* ochunk,
                                size_t bstride) {
  simd::Vec acc0 = simd::Zero(), acc1 = simd::Zero();
  simd::Vec acc2 = simd::Zero(), acc3 = simd::Zero();
  simd::Vec acc4 = simd::Zero(), acc5 = simd::Zero();
  simd::Vec acc6 = simd::Zero(), acc7 = simd::Zero();
  for (size_t t = 0; t < count; ++t) {
    const float* brow = bchunk + cols[t] * bstride;
    acc0 = simd::Add(acc0, simd::Load(brow));
    acc1 = simd::Add(acc1, simd::Load(brow + simd::kLanes));
    acc2 = simd::Add(acc2, simd::Load(brow + 2 * simd::kLanes));
    acc3 = simd::Add(acc3, simd::Load(brow + 3 * simd::kLanes));
    acc4 = simd::Add(acc4, simd::Load(brow + 4 * simd::kLanes));
    acc5 = simd::Add(acc5, simd::Load(brow + 5 * simd::kLanes));
    acc6 = simd::Add(acc6, simd::Load(brow + 6 * simd::kLanes));
    acc7 = simd::Add(acc7, simd::Load(brow + 7 * simd::kLanes));
  }
  simd::Store(ochunk, acc0);
  simd::Store(ochunk + simd::kLanes, acc1);
  simd::Store(ochunk + 2 * simd::kLanes, acc2);
  simd::Store(ochunk + 3 * simd::kLanes, acc3);
  simd::Store(ochunk + 4 * simd::kLanes, acc4);
  simd::Store(ochunk + 5 * simd::kLanes, acc5);
  simd::Store(ochunk + 6 * simd::kLanes, acc6);
  simd::Store(ochunk + 7 * simd::kLanes, acc7);
}

}  // namespace

void MatMulSparseUnit(const SparseRows& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.cols, b.rows());
  LMKG_CHECK(!a.row_begin.empty());
  const size_t m = a.rows(), n = b.cols();
  out->ResizeZeroed(m, n);
  constexpr size_t kChunk = 8 * simd::kLanes;
  const size_t nchunk = n - n % kChunk;
  const float* bbase = b.row(0);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t* cols = a.col.data() + a.row_begin[i];
    const size_t count = a.row_begin[i + 1] - a.row_begin[i];
    float* orow = out->row(i);
    size_t j0 = 0;
    for (; j0 < nchunk; j0 += kChunk)
      SparseUnitRowChunk8(cols, count, bbase + j0, orow + j0, n);
    if (j0 < n) {
      // Same memory-accumulated remainder as the dense kernels: AxpyRow
      // splits [j0, n) at the same lane boundary, so per-element ops
      // match across all kernels.
      for (size_t t = 0; t < count; ++t)
        AxpyRow(1.0f, bbase + cols[t] * n + j0, orow + j0, n - j0);
    }
  }
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.cols(), b.rows());
  out->ResizeZeroed(a.rows(), b.cols());
  // Sparse left operands (one-hot/binary query encodings, post-ReLU
  // activations) skip whole columns per row; dense ones amortize B-row
  // loads over a register block. Both kernels produce bit-identical rows.
  if (SampleDensity(a) < kSparseDensityCutoff) {
    MatMulRowsSparse(a, b, out, 0, a.rows());
  } else {
    MatMulRows(a, b, out, 0, a.rows());
  }
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.rows(), b.rows());
  out->ResizeZeroed(a.cols(), b.cols());
  MatMulTransAAccum(a, b, out);
}

void MatMulTransAAccum(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.rows(), b.rows());
  LMKG_CHECK_EQ(out->rows(), a.cols());
  LMKG_CHECK_EQ(out->cols(), b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  // Tile the output rows so the out block stays cache-resident across the
  // whole l sweep (out rows are revisited k times).
  constexpr size_t kOutRowTile = 32;
  for (size_t ib = 0; ib < m; ib += kOutRowTile) {
    const size_t ie = std::min(ib + kOutRowTile, m);
    for (size_t l = 0; l < k; ++l) {
      const float* arow = a.row(l);
      const float* brow = b.row(l);
      float* orow = out->row(ib);
      for (size_t i = ib; i < ie; ++i, orow += n) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        AxpyRow(av, brow, orow, n);
      }
    }
  }
}

void MatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  LMKG_CHECK_EQ(a.cols(), b.cols());
  out->Resize(a.rows(), b.rows());
  const size_t k = a.cols(), n = b.rows();
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.row(i);
    float* orow = out->row(i);
    for (size_t j = 0; j < n; ++j) orow[j] = DotRow(arow, b.row(j), k);
  }
}

void AddRowVector(Matrix* m, const Matrix& bias) {
  LMKG_CHECK_EQ(bias.rows(), 1u);
  LMKG_CHECK_EQ(bias.cols(), m->cols());
  const size_t n = m->cols();
  const size_t nv = n - n % simd::kLanes;
  const float* b = bias.row(0);
  for (size_t i = 0; i < m->rows(); ++i) {
    float* row = m->row(i);
    size_t j = 0;
    for (; j < nv; j += simd::kLanes)
      simd::Store(row + j,
                  simd::Add(simd::Load(row + j), simd::Load(b + j)));
    for (; j < n; ++j) row[j] += b[j];
  }
}

void SumRowsAccum(const Matrix& m, Matrix* out) {
  LMKG_CHECK_EQ(out->rows(), 1u);
  LMKG_CHECK_EQ(out->cols(), m.cols());
  float* o = out->row(0);
  for (size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    for (size_t j = 0; j < m.cols(); ++j) o[j] += row[j];
  }
}

void HadamardInPlace(Matrix* dst, const Matrix& src) {
  LMKG_CHECK_EQ(dst->rows(), src.rows());
  LMKG_CHECK_EQ(dst->cols(), src.cols());
  float* d = dst->data();
  const float* s = src.data();
  const size_t n = dst->size();
  const size_t nv = n - n % simd::kLanes;
  size_t i = 0;
  for (; i < nv; i += simd::kLanes)
    simd::Store(d + i, simd::Mul(simd::Load(d + i), simd::Load(s + i)));
  for (; i < n; ++i) d[i] *= s[i];
}

const char* SimdIsaName() { return simd::kIsaName; }

void FillGaussian(Matrix* m, float stddev, util::Pcg32& rng) {
  float* d = m->data();
  for (size_t i = 0; i < m->size(); ++i)
    d[i] = static_cast<float>(rng.NextGaussian()) * stddev;
}

}  // namespace lmkg::nn
