package sparse

// Ordering selects the fill-reducing ordering applied symmetrically to rows
// and columns before a sparse factorization. The zero value is OrderAMD.
type Ordering int

const (
	// OrderAMD applies approximate minimum degree (Amestoy, Davis and Duff)
	// on the symmetrized pattern. Best fill behaviour on power-grid pencils;
	// the zero value, so every factorization is ordered unless told
	// otherwise.
	OrderAMD Ordering = iota
	// OrderNatural factors the matrix as given.
	OrderNatural
)

func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderAMD:
		return "amd"
	}
	return "unknown"
}

// orderSym returns the ordering q (new→old) that o selects for a, and a
// permuted symmetrically by it; under OrderNatural, the identity and a.
func orderSym[T Scalar](a *CSC[T], o Ordering) (Perm, *CSC[T]) {
	if o == OrderNatural {
		return IdentityPerm(a.rows), a
	}
	q := AMD(a)
	return q, a.PermuteSym(q)
}

// symmetrizedPattern returns the pattern of A + Aᵀ without self loops in
// flat compressed form: the neighbours of i are idx[ptr[i]:ptr[i+1]], free of
// duplicates but in no particular order. idx[ptr[n]:] is spare room, which
// AMD's quotient graph uses for new elements.
func symmetrizedPattern[T Scalar](a *CSC[T]) (ptr, idx []int32) {
	n, _ := a.Dims()
	// Counting pass: every off-diagonal entry (i, j) is an edge in both
	// lists; symmetric entries and repeated row indices are counted twice
	// here and dropped below.
	ptr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; i != j {
				ptr[i+1]++
				ptr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	idx = make([]int32, ptr[n])
	fill := make([]int32, n)
	copy(fill, ptr[:n])
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; i != j {
				idx[fill[i]] = int32(j)
				fill[i]++
				idx[fill[j]] = int32(i)
				fill[j]++
			}
		}
	}
	// Deduplicating pass, compacting in place: fill doubles as the mark
	// array, holding i+1 once neighbour v of i has been kept.
	clear(fill)
	w := int32(0)
	for i := 0; i < n; i++ {
		start := ptr[i]
		ptr[i] = w
		for _, v := range idx[start:ptr[i+1]] {
			if fill[v] != int32(i)+1 {
				fill[v] = int32(i) + 1
				idx[w] = v
				w++
			}
		}
	}
	ptr[n] = w
	return ptr, idx
}
