package sparse

import (
	"math"
	"math/cmplx"
)

// The reductions below hoist the scalar-type switch of Abs and Conj out of
// their loops: a generic instance pays that switch per element, which costs
// more than the arithmetic. Each specialised loop runs the generic form's
// operations in its element order, so its result is bit-identical.

// Dot returns the unconjugated dot product xᵀy.
func Dot[T Scalar](x, y []T) T {
	if len(x) != len(y) {
		panic("sparse: Dot length mismatch")
	}
	var sum T
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum
}

// DotConj returns the conjugated inner product xᴴy (equals xᵀy for real T).
func DotConj[T Scalar](x, y []T) T {
	if len(x) != len(y) {
		panic("sparse: DotConj length mismatch")
	}
	switch xv := any(x).(type) {
	case []float64:
		yv := any(y).([]float64)
		var sum float64
		for i := range xv {
			sum += xv[i] * yv[i]
		}
		return any(sum).(T)
	case []complex128:
		yv := any(y).([]complex128)
		var sum complex128
		for i := range xv {
			sum += cmplx.Conj(xv[i]) * yv[i]
		}
		return any(sum).(T)
	}
	return dotConjGeneric(x, y)
}

func dotConjGeneric[T Scalar](x, y []T) T {
	var sum T
	for i := range x {
		sum += Conj(x[i]) * y[i]
	}
	return sum
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2[T Scalar](x []T) float64 {
	var sum float64
	switch v := any(x).(type) {
	case []float64:
		// |x|·|x| = x·x exactly for every float64, NaN included.
		for _, a := range v {
			sum += a * a
		}
	case []complex128:
		for _, c := range v {
			a := cmplx.Abs(c)
			sum += a * a
		}
	default:
		return nrm2Generic(x)
	}
	return math.Sqrt(sum)
}

func nrm2Generic[T Scalar](x []T) float64 {
	var sum float64
	for i := range x {
		a := Abs(x[i])
		sum += a * a
	}
	return math.Sqrt(sum)
}

// Axpy computes y += alpha*x.
func Axpy[T Scalar](y []T, alpha T, x []T) {
	if len(x) != len(y) {
		panic("sparse: Axpy length mismatch")
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// ScaleVec multiplies x by alpha in place.
func ScaleVec[T Scalar](x []T, alpha T) {
	for i := range x {
		x[i] *= alpha
	}
}

// ZeroVec sets x to zero.
func ZeroVec[T Scalar](x []T) {
	var zero T
	for i := range x {
		x[i] = zero
	}
}

// InfNorm returns the maximum absolute entry of x (0 for empty x).
func InfNorm[T Scalar](x []T) float64 {
	m := 0.0
	switch v := any(x).(type) {
	case []float64:
		for _, a := range v {
			if a < 0 {
				a = -a
			}
			if a > m {
				m = a
			}
		}
	case []complex128:
		for _, c := range v {
			if a := cmplx.Abs(c); a > m {
				m = a
			}
		}
	default:
		return infNormGeneric(x)
	}
	return m
}

func infNormGeneric[T Scalar](x []T) float64 {
	m := 0.0
	for i := range x {
		if a := Abs(x[i]); a > m {
			m = a
		}
	}
	return m
}
