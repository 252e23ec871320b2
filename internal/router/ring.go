// Package router is the fault-tolerant front tier of a pgserve fleet: one
// stateless HTTP process that owns replica selection so clients never see a
// single replica's failure.
//
// Placement is a consistent hash ring over the model key space: every model
// has a stable primary replica (maximizing that replica's model-repository
// and factorization-cache hit rates) and a deterministic preference order of
// fallbacks, so losing one replica reshuffles only the models it owned.
// Health is tracked two ways — an active /healthz prober and a per-replica
// circuit breaker fed by real request outcomes — and requests route only to
// replicas both consider usable. Failed or slow attempts retry on the next
// ring replica with capped exponential backoff; idempotent reads can hedge;
// cold /reduce builds are single-flighted at the router so a thundering herd
// reduces a model exactly once fleet-wide; transient sessions fail over by
// resuming from persisted snapshots. When nothing healthy owns a model, the
// router sheds with 429 + Retry-After instead of queueing.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per replica. 128 keeps the maximum
// per-replica load imbalance under a few percent for small fleets while the
// ring stays tiny (N×128 entries).
const DefaultVNodes = 128

// Ring is an immutable consistent hash ring: replicas × vnodes points on a
// 64-bit circle. Lookup walks clockwise from the key's hash collecting
// distinct replicas — the preference order for that key.
type Ring struct {
	replicas []string
	hashes   []uint64 // sorted vnode positions
	owner    []int    // owner[i] = index into replicas of hashes[i]
}

// NewRing builds a ring over the replica base URLs. vnodes <= 0 selects
// DefaultVNodes.
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("router: ring needs at least one replica")
	}
	seen := make(map[string]bool, len(replicas))
	for _, rep := range replicas {
		if rep == "" {
			return nil, fmt.Errorf("router: empty replica address")
		}
		if seen[rep] {
			return nil, fmt.Errorf("router: duplicate replica %q", rep)
		}
		seen[rep] = true
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		replicas: append([]string(nil), replicas...),
		hashes:   make([]uint64, 0, len(replicas)*vnodes),
		owner:    make([]int, 0, len(replicas)*vnodes),
	}
	type point struct {
		h     uint64
		owner int
	}
	pts := make([]point, 0, len(replicas)*vnodes)
	for i, rep := range r.replicas {
		base := hash64(rep)
		for v := 0; v < vnodes; v++ {
			// Derive vnode positions by mixing the replica hash with the vnode
			// index through a splitmix64 finalizer. Hashing "addr#v" strings
			// directly with FNV-1a leaves the points badly clustered (near-50%
			// ownership skew at 128 vnodes); the finalizer's avalanche spreads
			// them uniformly.
			pts = append(pts, point{h: mix64(base + uint64(v)*0x9e3779b97f4a7c15), owner: i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].h != pts[b].h {
			return pts[a].h < pts[b].h
		}
		return pts[a].owner < pts[b].owner // deterministic on (vanishingly rare) collisions
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owner = append(r.owner, p.owner)
	}
	return r, nil
}

// Replicas returns every replica on the ring, in construction order.
func (r *Ring) Replicas() []string { return append([]string(nil), r.replicas...) }

// Preference returns every replica in the key's preference order: the primary
// first, then each distinct replica met walking the ring clockwise. The order
// is a pure function of (ring membership, key) — every router instance
// computes the same one.
func (r *Ring) Preference(key string) []string {
	h := hash64(key)
	// First vnode at or after h, wrapping.
	i := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= h })
	out := make([]string, 0, len(r.replicas))
	taken := make([]bool, len(r.replicas))
	for n := 0; n < len(r.hashes) && len(out) < len(r.replicas); n++ {
		o := r.owner[(i+n)%len(r.hashes)]
		if !taken[o] {
			taken[o] = true
			out = append(out, r.replicas[o])
		}
	}
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose avalanche
// compensates for FNV-1a's weak diffusion on short, similar strings.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
