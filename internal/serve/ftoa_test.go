package serve

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

var (
	updateTable  = flag.Bool("update", false, "rewrite ftoa_table.go from math/big")
	ftoaPatterns = flag.Int("ftoa.patterns", 2_000_000, "random bit patterns TestAppendFloatMatchesStrconv checks")
)

// appendFloatStrconv is the reference appendJSONFloat must match byte for
// byte: strconv's shortest digits in encoding/json's layout, as
// encoding/json itself writes a float64, with its e-0X → e-X clean-up.
func appendFloatStrconv(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// pow10Ref returns the 128-bit significand pow10Table holds for 10^e,
// ⌊10^e · 2^(127 − ⌊log2 10^e⌋)⌋ + 1, and ⌊log2 10^e⌋, computed exactly.
func pow10Ref(e int) (hi, lo uint64, log2 int) {
	num, den := big.NewInt(1), big.NewInt(1)
	ten := big.NewInt(10)
	if e >= 0 {
		num.Exp(ten, big.NewInt(int64(e)), nil)
	} else {
		den.Exp(ten, big.NewInt(int64(-e)), nil)
	}
	// ⌊log2(num/den)⌋ from the bit lengths, corrected by one comparison.
	log2 = num.BitLen() - den.BitLen()
	if log2 >= 0 && num.Cmp(new(big.Int).Lsh(den, uint(log2))) < 0 ||
		log2 < 0 && new(big.Int).Lsh(num, uint(-log2)).Cmp(den) < 0 {
		log2--
	}
	if shift := 127 - log2; shift >= 0 {
		num.Lsh(num, uint(shift))
	} else {
		den.Lsh(den, uint(-shift))
	}
	g := num.Quo(num, den)
	g.Add(g, big.NewInt(1))
	if g.BitLen() != 128 {
		panic(fmt.Sprintf("10^%d: significand has %d bits", e, g.BitLen()))
	}
	lo = new(big.Int).And(g, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	hi = g.Rsh(g, 64).Uint64()
	return hi, lo, log2
}

// TestPow10Table regenerates the power-of-ten table with math/big and
// compares every entry; with -update it rewrites ftoa_table.go instead. It
// also pins floorLog2Pow10 to the exact logarithm over the table's range.
func TestPow10Table(t *testing.T) {
	var src bytes.Buffer
	src.WriteString("// Code generated by \"go test -run TestPow10Table -update\"; DO NOT EDIT.\n\n")
	src.WriteString("package serve\n\n")
	fmt.Fprintf(&src, "// pow10Table[e−pow10Min] = {hi, lo} of ⌊10^e · 2^(127 − ⌊log2 10^e⌋)⌋ + 1,\n")
	fmt.Fprintf(&src, "// e ∈ [%d, %d]: 10^e rounded up to 128 significant bits.\n", pow10Min, pow10Max)
	src.WriteString("var pow10Table = [pow10Max - pow10Min + 1][2]uint64{\n")
	for e := pow10Min; e <= pow10Max; e++ {
		hi, lo, log2 := pow10Ref(e)
		if got := floorLog2Pow10(e); got != log2 {
			t.Fatalf("floorLog2Pow10(%d) = %d, want %d", e, got, log2)
		}
		if got := pow10Table[e-pow10Min]; !*updateTable && got != [2]uint64{hi, lo} {
			t.Fatalf("pow10Table[10^%d] = %#x, want %#x (regenerate with -update)", e, got, [2]uint64{hi, lo})
		}
		fmt.Fprintf(&src, "\t{%#016x, %#016x}, // 1e%d\n", hi, lo, e)
	}
	src.WriteString("}\n")
	if !*updateTable {
		return
	}
	out, err := format.Source(src.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("ftoa_table.go", out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkFloat fails t when appendFloat's bytes for f differ from the
// strconv reference's.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	got, err := appendFloat([]byte("x"), f)
	want := appendFloatStrconv([]byte("x"), f)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%#016x) = %q, %v; strconv writes %q", math.Float64bits(f), got[1:], err, want[1:])
	}
}

// TestAppendFloatMatchesStrconv compares appendFloat with the strconv
// reference on -ftoa.patterns random bit patterns and on the inputs where a
// shortest-digit encoder is most likely to slip: every power of two and of
// ten with both neighbours, subnormals, the ends of the fixed layout and the
// value mix a response carries.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		if math.IsInf(f, 0) {
			return // past the largest float
		}
		checkFloat(t, f)
		checkFloat(t, -f)
	}
	neighbours := func(f float64) {
		t.Helper()
		check(f)
		check(math.Nextafter(f, 0))
		check(math.Nextafter(f, math.Inf(1)))
	}

	for _, c := range []struct {
		f    float64
		want string
	}{
		{math.Copysign(0, -1), "-0"}, {1e-7, "1e-7"}, {1e21, "1e+21"}, {1e-6, "0.000001"},
		{123456789e-15, "1.23456789e-7"}, {5e-324, "5e-324"},
	} {
		if got, _ := appendFloat(nil, c.f); string(got) != c.want {
			t.Fatalf("appendFloat(%v) = %q, want %q", c.f, got, c.want)
		}
	}
	for _, f := range edgeFloats {
		neighbours(f)
	}
	for e := -1074; e <= 1023; e++ {
		neighbours(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		neighbours(f)
	}
	for _, f := range []float64{fixedLow, fixedHigh, math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022} {
		for i, g := 0, f; i < 1000; i, g = i+1, math.Nextafter(g, 0) {
			check(g)
		}
		for i, g := 0, f; i < 1000; i, g = i+1, math.Nextafter(g, math.Inf(1)) {
			check(g)
		}
	}

	rng := rand.New(rand.NewSource(27))
	for range 100_000 {
		check(math.Float64frombits(rng.Uint64() & (1<<mantBits - 1))) // subnormal
		check(float64(rng.Int63n(1 << 53)))                           // integer
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, f := range responseFloats(1 << 14) {
		check(f)
	}
	for range *ftoaPatterns {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			checkFloat(t, f)
		}
	}
}

// responseFloats returns n values of the kinds a response carries, in
// turn: log-spaced sweep frequencies over [1e6, 1e12], transfer values of
// magnitude 1e-3 to 1e1 and session step times k·1e-11.
func responseFloats(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, n)
	for i := range v {
		switch i % 3 {
		case 0:
			v[i] = math.Pow(10, 6+6*float64(i%97)/96)
		case 1:
			v[i] = math.Copysign(math.Pow(10, -3+4*rng.Float64()), rng.Float64()-0.5)
		default:
			v[i] = float64(i) * 1e-11
		}
	}
	return v
}

// BenchmarkAppendFloat formats the response value mix through the encoder
// and through the strconv reference; ns/op is per float.
func BenchmarkAppendFloat(b *testing.B) {
	vals := responseFloats(1 << 12)
	buf := make([]byte, 0, 64)
	b.Run("schubfach", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			buf, _ = appendFloat(buf[:0], vals[i&(len(vals)-1)])
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			buf = appendFloatStrconv(buf[:0], vals[i&(len(vals)-1)])
		}
	})
}
