// Package linalg provides the small dense linear-algebra kernel used by the
// statistics and machine-learning packages: dense matrices, linear solves,
// Cholesky factorization, and a Jacobi eigendecomposition for symmetric
// matrices. It is deliberately minimal — just enough to support ordinary
// least squares, kernel methods (KCCA), and SMO-based SVMs on workloads of a
// few hundred samples.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve or factorization encounters a matrix
// that is singular (or numerically indistinguishable from singular).
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible matrix shapes")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a slice of m's storage: no copy, and a write
// to it writes m.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(ErrShape)
	}
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// Scale multiplies every element of m by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat returns a+b as a new matrix.
func AddMat(a, b *Matrix) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(ErrShape)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// AddDiag adds v to each diagonal element of m, in place, and returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// Solve solves the linear system A·x = b by Gaussian elimination with
// partial pivoting. A must be square; it is not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n || len(b) != n {
		return nil, ErrShape
	}
	// Augmented working copy.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(w.At(r, col)); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.data[col*n+j], w.data[pivot*n+j] = w.data[pivot*n+j], w.data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w.data[r*n+j] -= f * w.data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for j := r + 1; j < n; j++ {
			s -= w.At(r, j) * x[j]
		}
		x[r] = s / w.At(r, r)
	}
	return x, nil
}

// SolveMat solves A·X = B column by column.
func SolveMat(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, ErrShape
	}
	out := NewMatrix(a.rows, b.cols)
	col := make([]float64, b.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.At(i, j)
		}
		x, err := Solve(a, col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < a.rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A.
func Cholesky(a *Matrix) (*Matrix, error) {
	n := a.rows
	if a.cols != n {
		return nil, ErrShape
	}
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }
