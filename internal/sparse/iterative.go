package sparse

import (
	"errors"
	"fmt"
)

// Solver abstracts "apply A⁻¹" so that model reduction code can run either
// on a direct factorization (fast, memory-hungry) or on an iterative
// Krylov solver (slow, streaming) — mirroring the paper's note that the
// sparse LU "is skipped in ckts3-5 to save memory, at the cost of more
// simulation time".
type Solver[T Scalar] interface {
	// Solve stores A⁻¹ b in dst; dst and b may alias.
	Solve(dst, b []T) error
	// N returns the system dimension.
	N() int
}

// ErrNoConvergence is returned when an iterative solver fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("sparse: iterative solver did not converge")

// IterOptions configures the iterative solvers.
type IterOptions struct {
	// Tol is the relative residual tolerance ‖b - Ax‖/‖b‖. Default 1e-12.
	Tol float64
	// MaxIter bounds the iteration count. Default 4·n.
	MaxIter int
}

func (o *IterOptions) defaults(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 4 * n
	}
}

// BiCGStab is a Jacobi-preconditioned stabilized bi-conjugate gradient
// solver for general (unsymmetric) systems, such as the RLC MNA pencil that
// couples node voltages and inductor currents.
type BiCGStab[T Scalar] struct {
	a    *CSR[T]
	dinv []T
	opts IterOptions
}

// NewBiCGStab builds a BiCGStab solver for the square matrix a.
func NewBiCGStab[T Scalar](a *CSR[T], opts IterOptions) (*BiCGStab[T], error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("sparse: BiCGStab requires a square matrix, got %d×%d", n, m)
	}
	opts.defaults(n)
	dinv := make([]T, n)
	for i := 0; i < n; i++ {
		d := a.At(i, i)
		if IsZero(d) {
			// Zero diagonal (e.g. inductor-current rows): fall back to the
			// identity for that row of the preconditioner.
			dinv[i] = FromFloat[T](1)
			continue
		}
		dinv[i] = FromFloat[T](1) / d
	}
	return &BiCGStab[T]{a: a, dinv: dinv, opts: opts}, nil
}

// N returns the system dimension.
func (s *BiCGStab[T]) N() int { n, _ := s.a.Dims(); return n }

// Solve runs preconditioned BiCGStab from a zero initial guess.
func (s *BiCGStab[T]) Solve(dst, b []T) error {
	n := s.N()
	if len(dst) != n || len(b) != n {
		return fmt.Errorf("sparse: BiCGStab Solve length mismatch (n=%d)", n)
	}
	x := make([]T, n)
	r := append([]T(nil), b...)
	rhat := append([]T(nil), b...)
	p := make([]T, n)
	v := make([]T, n)
	sv := make([]T, n)
	t := make([]T, n)
	phat := make([]T, n)
	shat := make([]T, n)

	bnorm := Nrm2(b)
	if bnorm == 0 {
		ZeroVec(dst)
		return nil
	}
	var rho, alpha, omega T
	one := FromFloat[T](1)
	rho, alpha, omega = one, one, one
	ZeroVec(p)
	ZeroVec(v)

	for it := 0; it < s.opts.MaxIter; it++ {
		rhoNew := DotConj(rhat, r)
		if IsZero(rhoNew) {
			break
		}
		beta := (rhoNew / rho) * (alpha / omega)
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		rho = rhoNew
		for i := range phat {
			phat[i] = s.dinv[i] * p[i]
		}
		s.a.MatVec(v, phat)
		alpha = rho / DotConj(rhat, v)
		for i := range sv {
			sv[i] = r[i] - alpha*v[i]
		}
		if Nrm2(sv)/bnorm <= s.opts.Tol {
			Axpy(x, alpha, phat)
			copy(dst, x)
			return nil
		}
		for i := range shat {
			shat[i] = s.dinv[i] * sv[i]
		}
		s.a.MatVec(t, shat)
		tt := DotConj(t, t)
		if IsZero(tt) {
			break
		}
		omega = DotConj(t, sv) / tt
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = sv[i] - omega*t[i]
		}
		if Nrm2(r)/bnorm <= s.opts.Tol {
			copy(dst, x)
			return nil
		}
		if IsZero(omega) {
			break
		}
	}
	copy(dst, x)
	return fmt.Errorf("%w: BiCGStab (rel res %.3e)", ErrNoConvergence, Nrm2(r)/bnorm)
}
