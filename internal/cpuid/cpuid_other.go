//go:build !amd64 || purego

package cpuid

func hasAVX2() bool { return false }
