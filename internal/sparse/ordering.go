package sparse

import "sort"

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
	// OrderRCM applies reverse Cuthill–McKee bandwidth reduction. Cheap and
	// effective for mesh-like power grids at moderate sizes.
	OrderRCM
)

func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderAMD:
		return "amd"
	}
	return "unknown"
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

// RCM computes a reverse Cuthill–McKee ordering of the symmetrized pattern
// of A. The returned permutation maps new index to old index.
func RCM[T Scalar](a *CSC[T]) Perm {
	n, _ := a.Dims()
	ptr, idx := symmetrizedPattern(a)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)

	// Process each connected component from a pseudo-peripheral start node.
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(ptr, idx, start)
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			// Neighbours in increasing-degree order per Cuthill–McKee.
			nbrs := make([]int, 0, ptr[v+1]-ptr[v])
			for _, w := range idx[ptr[v]:ptr[v+1]] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, int(w))
				}
			}
			// Ties go to the lower index, so the order does not depend on
			// the order of the neighbour lists.
			sort.Slice(nbrs, func(x, y int) bool {
				u, w := nbrs[x], nbrs[y]
				if du, dw := ptr[u+1]-ptr[u], ptr[w+1]-ptr[w]; du != dw {
					return du < dw
				}
				return u < w
			})
			queue = append(queue, nbrs...)
		}
	}
	// Reverse for RCM.
	p := make(Perm, n)
	for i, v := range order {
		p[n-1-i] = v
	}
	return p
}

// pseudoPeripheral locates an approximately peripheral node of the component
// containing start by repeated BFS to the farthest level.
func pseudoPeripheral(ptr, idx []int32, start int) int {
	level := make([]int, len(ptr)-1)
	cur := start
	bestEcc := -1
	for iter := 0; iter < 8; iter++ {
		for i := range level {
			level[i] = -1
		}
		level[cur] = 0
		q := []int{cur}
		last := cur
		ecc := 0
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range idx[ptr[v]:ptr[v+1]] {
				if level[w] < 0 {
					level[w] = level[v] + 1
					if level[w] > ecc {
						ecc = level[w]
						last = int(w)
					}
					q = append(q, int(w))
				}
			}
		}
		if ecc <= bestEcc {
			break
		}
		bestEcc = ecc
		cur = last
	}
	return cur
}
