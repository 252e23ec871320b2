package sparse

// Perm is a permutation vector mapping new index to old index: a permuted
// vector y relates to the original x by y[i] = x[p[i]].
type Perm []int

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Inverse returns the inverse permutation q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, pi := range p {
		q[pi] = i
	}
	return q
}
