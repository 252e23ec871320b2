// Package sparse implements the sparse linear algebra kernel used by the
// power-grid model order reduction library: triplet (COO), CSR and CSC
// storage, sparse matrix-vector and matrix-matrix products, symmetric
// permutations, the approximate-minimum-degree fill-reducing ordering, a
// signed sparse Cholesky factorization for pencils that a row signing makes
// symmetric quasi-definite, a left-looking Gilbert–Peierls sparse LU
// factorization with threshold partial pivoting for the rest, and the
// BiCGStab iterative solver.
//
// All matrix types are generic over the Scalar constraint so the same
// factorization code serves both the real expansions (s0 real) used during
// model reduction and the complex evaluations (s = jw) used for exact
// frequency-response references.
package sparse

import "math/cmplx"

// Scalar is the element type of all matrices and vectors in this package:
// float64 for real-valued systems, complex128 for frequency-domain work.
type Scalar interface {
	~float64 | ~complex128
}

// Abs returns the absolute value (modulus) of x as a float64.
func Abs[T Scalar](x T) float64 {
	switch v := any(x).(type) {
	case float64:
		if v < 0 {
			return -v
		}
		return v
	case complex128:
		return cmplx.Abs(v)
	}
	panic("sparse: unreachable scalar type")
}

// Conj returns the complex conjugate of x (identity for float64).
func Conj[T Scalar](x T) T {
	switch v := any(x).(type) {
	case float64:
		return x
	case complex128:
		return any(cmplx.Conj(v)).(T)
	}
	panic("sparse: unreachable scalar type")
}

// FromFloat converts a float64 into the scalar type T.
func FromFloat[T Scalar](x float64) T {
	var zero T
	switch any(zero).(type) {
	case float64:
		return any(x).(T)
	case complex128:
		return any(complex(x, 0)).(T)
	}
	panic("sparse: unreachable scalar type")
}

// IsZero reports whether x is exactly zero.
func IsZero[T Scalar](x T) bool {
	var zero T
	return x == zero
}
