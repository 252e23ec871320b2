//go:build amd64 && !purego

package cpuid

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// hasAVX2 reports AVX2 plus OS-enabled YMM state (OSXSAVE, XCR0 SSE|AVX).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0
}
