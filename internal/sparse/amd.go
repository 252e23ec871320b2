package sparse

import (
	"math"
	"math/bits"
)

// AMD computes an approximate-minimum-degree ordering (Amestoy, Davis and
// Duff) of the symmetrized pattern of A. The returned permutation maps new
// index to old index; factoring P A Pᵀ instead of A typically reduces fill
// dramatically on mesh-structured power-grid matrices.
//
// Elimination runs on a quotient graph whose lists share one flat int32
// workspace. The list of a live variable holds its adjacent elements, then
// its adjacent variables; the list of an element holds its boundary
// variables. Choosing a pivot k absorbs the elements adjacent to k into the
// new element Lk. Each variable i in Lk then gets the approximate external
// degree
//
//	d(i) ≤ |Aᵢ \ i| + |Lk \ i| + Σₑ |Lₑ \ Lk|,
//
// where every |Lₑ \ Lk| comes from one scan over the elements adjacent to
// Lk. An element whose boundary lies inside Lk is absorbed at once, a
// variable left with nothing outside Lk is eliminated with k (mass
// elimination), and variables with identical lists, found by hashing, merge
// into one supervariable. Rows denser than max(16, 10√n) are set aside and
// ordered last. The result is the postorder of the assembly tree.
//
// Each node's scalars share one int32 amdNode record, so the handful of them
// a pivot step reads for a node come from one cache line.
func AMD[T Scalar](a *CSC[T]) Perm {
	n, _ := a.Dims()
	if n == 0 {
		return Perm{}
	}
	ptr, iw := symmetrizedPattern(a)
	cnz := ptr[n]
	// Elbow room for new elements; garbage collection compacts when it runs
	// out.
	if need := int(cnz) + int(cnz)/5 + 2*n; len(iw) < need {
		grown := make([]int32, need)
		copy(grown, iw[:cnz])
		iw = grown
	}
	nzmax := int32(len(iw))
	n32 := int32(n)
	dense := min(n32-2, int32(max(16, 10*math.Sqrt(float64(n)))))

	nd := make([]amdNode, n+1)
	ws := make([]int32, 2*(n+1))
	head, hhead := ws[:n+1], ws[n+1:]

	for i := 0; i < n; i++ {
		nd[i].pe, nd[i].ln = ptr[i], ptr[i+1]-ptr[i]
	}
	for i := 0; i <= n; i++ {
		head[i], nd[i].last, nd[i].next, hhead[i] = -1, -1, -1, -1
		nd[i].nv, nd[i].w, nd[i].degree = 1, 1, nd[i].ln
	}
	// Node n is the dead element the dense rows join.
	nd[n].elen, nd[n].pe, nd[n].w = -2, -1, 0
	mark := int32(2) // above every live w

	nel := int32(0) // eliminated (or set aside) variables so far
	for i := int32(0); i < n32; i++ {
		switch d := nd[i].degree; {
		case d == 0:
			nd[i].elen, nd[i].pe, nd[i].w = -2, -1, 0
			nel++
		case d > dense:
			nd[i].nv, nd[i].elen, nd[i].pe = 0, -1, amdFlip(n32)
			nd[n].nv++
			nel++
		default:
			if head[d] != -1 {
				nd[head[d]].last = i
			}
			nd[i].next = head[d]
			head[d] = i
		}
	}

	// Supervariable hash buckets: the first 2ᵇ ≤ n+1 entries of hhead,
	// indexed by a multiplicative (Fibonacci) hash.
	hshift := uint(64 - (bits.Len(uint(n+1)) - 1))

	var lemax, mindeg int32
	for nel < n32 {
		// Select the variable of minimum approximate degree.
		for head[mindeg] == -1 {
			mindeg++
		}
		k := head[mindeg]
		if nd[k].next != -1 {
			nd[nd[k].next].last = -1
		}
		head[mindeg] = nd[k].next
		elenk, nvk := nd[k].elen, nd[k].nv
		nel += nvk

		if elenk > 0 && cnz+mindeg >= nzmax {
			cnz = amdCompact(iw, nd, cnz, n32)
		}

		// Construct Lk from the variables of k and of its elements,
		// absorbing those elements. With no elements Lk reuses k's own
		// list; otherwise it is built at the end of iw.
		dk := int32(0)
		nd[k].nv = -nvk
		p := nd[k].pe
		pk1 := p
		if elenk != 0 {
			pk1 = cnz
		}
		pk2 := pk1
		for k1 := int32(1); k1 <= elenk+1; k1++ {
			e, pj, lnE := k, p, nd[k].ln-elenk
			if k1 <= elenk {
				e = iw[p]
				p++
				pj, lnE = nd[e].pe, nd[e].ln
			}
			for _, i := range iw[pj : pj+lnE] {
				ni := &nd[i]
				nvi := ni.nv
				if nvi <= 0 {
					continue // dead, or already in Lk
				}
				dk += nvi
				ni.nv = -nvi
				iw[pk2] = i
				pk2++
				// Take i off its degree list.
				if ni.next != -1 {
					nd[ni.next].last = ni.last
				}
				if ni.last != -1 {
					nd[ni.last].next = ni.next
				} else {
					head[ni.degree] = ni.next
				}
			}
			if e != k {
				nd[e].pe, nd[e].w = amdFlip(k), 0
			}
		}
		if elenk != 0 {
			cnz = pk2
		}
		nd[k].degree, nd[k].pe, nd[k].ln, nd[k].elen = dk, pk1, pk2-pk1, -2

		// Scan 1: nd[e].w - mark = |Le \ Lk| for every live element e adjacent
		// to Lk.
		mark = amdClear(mark, lemax, nd, n)
		for _, i := range iw[pk1:pk2] {
			ni := &nd[i]
			if ni.elen <= 0 {
				continue
			}
			nvi := -ni.nv
			wnvi := mark - nvi
			for _, e := range iw[ni.pe : ni.pe+ni.elen] {
				ne := &nd[e]
				if ne.w >= mark {
					ne.w -= nvi
				} else if ne.w != 0 {
					ne.w = ne.degree + wnvi
				}
			}
		}

		// Scan 2: approximate degrees. Prune each list of Lk's members,
		// absorb elements inside Lk, mass-eliminate variables with no
		// outside neighbours, and hash the rest for supervariable detection.
		for _, i := range iw[pk1:pk2] {
			ni := &nd[i]
			p1 := ni.pe
			p2 := p1 + ni.elen - 1
			pn := p1
			var h uint64
			d := int32(0)
			for _, e := range iw[p1 : p2+1] {
				ne := &nd[e]
				if ne.w == 0 {
					continue
				}
				if dext := ne.w - mark; dext > 0 {
					d += dext
					iw[pn] = e
					pn++
					h += uint64(e)
				} else {
					ne.pe, ne.w = amdFlip(k), 0 // aggressive absorption
				}
			}
			ni.elen = pn - p1 + 1
			p3 := pn
			for _, j := range iw[p2+1 : p1+ni.ln] {
				nvj := nd[j].nv
				if nvj <= 0 {
					continue // dead, or in Lk
				}
				d += nvj
				iw[pn] = j
				pn++
				h += uint64(j)
			}
			if d == 0 {
				nvi := -ni.nv
				dk -= nvi
				nvk += nvi
				nel += nvi
				ni.pe, ni.nv, ni.elen = amdFlip(k), 0, -1
				continue
			}
			ni.degree = min(ni.degree, d)
			// Make k the first element of i: the old first entry moves to
			// the end of the element part, the first variable to the end
			// of the list.
			iw[pn] = iw[p3]
			iw[p3] = iw[p1]
			iw[p1] = k
			ni.ln = pn - p1 + 1
			hb := int32(h * 0x9e3779b97f4a7c15 >> hshift)
			ni.next, ni.last = hhead[hb], hb
			hhead[hb] = i
		}
		nd[k].degree = dk
		lemax = max(lemax, dk)
		mark = amdClear(mark+lemax, lemax, nd, n)

		// Supervariables: compare the lists of variables sharing a hash
		// bucket and absorb every duplicate into the first.
		for pk := pk1; pk < pk2; pk++ {
			i := iw[pk]
			if nd[i].nv >= 0 {
				continue
			}
			hb := nd[i].last
			i = hhead[hb]
			hhead[hb] = -1
			for ; i != -1 && nd[i].next != -1; i, mark = nd[i].next, mark+1 {
				lnI, eln := nd[i].ln, nd[i].elen
				for p := nd[i].pe + 1; p < nd[i].pe+lnI; p++ {
					nd[iw[p]].w = mark
				}
				jlast := i
				for j := nd[i].next; j != -1; {
					ok := nd[j].ln == lnI && nd[j].elen == eln
					for p := nd[j].pe + 1; ok && p < nd[j].pe+lnI; p++ {
						ok = nd[iw[p]].w == mark
					}
					if ok {
						nd[j].pe = amdFlip(i)
						nd[i].nv += nd[j].nv
						nd[j].nv, nd[j].elen = 0, -1
						j = nd[j].next
						nd[jlast].next = j
					} else {
						jlast = j
						j = nd[j].next
					}
				}
			}
		}

		// Finalize Lk and put its variables back on the degree lists.
		p = pk1
		for pk := pk1; pk < pk2; pk++ {
			i := iw[pk]
			ni := &nd[i]
			nvi := -ni.nv
			if nvi <= 0 {
				continue
			}
			d := min(ni.degree+dk-nvi, n32-nel-nvi)
			if head[d] != -1 {
				nd[head[d]].last = i
			}
			ni.nv, ni.degree, ni.next, ni.last = nvi, d, head[d], -1
			head[d] = i
			mindeg = min(mindeg, d)
			iw[p] = i
			p++
		}
		nd[k].nv = nvk
		if nd[k].ln = p - pk1; nd[k].ln == 0 {
			nd[k].pe, nd[k].w = -1, 0 // k is a root of the assembly tree
		}
		if elenk != 0 {
			cnz = p
		}
	}

	// Postorder the assembly tree: absorbed variables are children of the
	// variable or element that absorbed them, elements of the element that
	// absorbed them; the roots are visited in index order, n last.
	for i := 0; i < n; i++ {
		nd[i].pe = amdFlip(nd[i].pe)
	}
	for j := range head {
		head[j] = -1
	}
	for j := n32; j >= 0; j-- {
		if nd[j].nv <= 0 {
			nd[j].next = head[nd[j].pe]
			head[nd[j].pe] = j
		}
	}
	for e := n32; e >= 0; e-- {
		if nd[e].nv > 0 && nd[e].pe != -1 {
			nd[e].next = head[nd[e].pe]
			head[nd[e].pe] = e
		}
	}
	post := make(Perm, n+1)
	k := 0
	stack := hhead
	for i := int32(0); i <= n32; i++ {
		if nd[i].pe != -1 {
			continue
		}
		top := 0
		stack[0] = i
		for top >= 0 {
			p := stack[top]
			if c := head[p]; c != -1 {
				head[p] = nd[c].next
				top++
				stack[top] = c
			} else {
				top--
				post[k] = int(p)
				k++
			}
		}
	}
	return post[:n] // post[n] is the placeholder element n
}

// amdFlip encodes a parent pointer as a value below -1; it is its own
// inverse.
func amdFlip(i int32) int32 { return -i - 2 }

// amdNode is the state AMD keeps for one node of the quotient graph: a
// variable, an element, or (at index n) the element that dense rows join.
type amdNode struct {
	pe     int32 // start of the node's list in iw, or flip(parent) once absorbed
	ln     int32 // list length
	nv     int32 // supervariable size; negated while the node lies in Lk
	next   int32 // successor in its degree list or hash bucket
	last   int32 // predecessor in its degree list, or its hash bucket
	elen   int32 // elements at the head of the list; -1 absorbed variable, -2 element
	degree int32 // approximate external degree; |Le| for an element
	w      int32 // element mark: 0 dead, else mark + |Le \ Lk| during a pivot
}

// amdClear returns a mark exceeding every live w entry, resetting the live
// entries to 1 when mark is unset or could overflow within the next pivot
// (which raises it by at most lemax plus n supervariable comparisons).
func amdClear(mark, lemax int32, nd []amdNode, n int) int32 {
	if mark < 2 || int64(mark)+2*int64(lemax)+int64(n) >= math.MaxInt32 {
		for k := 0; k < n; k++ {
			if nd[k].w != 0 {
				nd[k].w = 1
			}
		}
		mark = 2
	}
	return mark
}

// amdCompact garbage-collects the quotient graph: it slides every live list
// to the front of iw, in place, and returns the new used length. The first
// entry of each list temporarily holds flip(owner) so that a single scan
// over iw finds list starts.
func amdCompact(iw []int32, nd []amdNode, cnz, n int32) int32 {
	for j := int32(0); j < n; j++ {
		if p := nd[j].pe; p >= 0 {
			nd[j].pe = iw[p]
			iw[p] = amdFlip(j)
		}
	}
	q := int32(0)
	for p := int32(0); p < cnz; {
		j := amdFlip(iw[p])
		p++
		if j < 0 {
			continue
		}
		iw[q] = nd[j].pe
		nd[j].pe = q
		q++
		for c := int32(1); c < nd[j].ln; c++ {
			iw[q] = iw[p]
			q++
			p++
		}
	}
	return q
}
