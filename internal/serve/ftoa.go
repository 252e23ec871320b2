package serve

import (
	"math"
	"math/bits"
	"slices"
)

// The response encoders format every float64 through appendJSONFloat: the
// shortest decimal that reads back as the same float64, laid out as
// encoding/json lays it out. The digits come from Schubfach (R. Giulietti,
// "The Schubfach way to render doubles", 2020): the float's rounding
// interval is scaled by a 128-bit power of ten from pow10Table, with three
// round-to-odd products, and the shortest decimal in it is picked with a few
// integer comparisons. The shortest, closest decimal is unique (ties go to
// the even digit), so these are strconv's digits, and the tests compare the
// bytes with strconv's on millions of inputs.

const (
	mantBits = 52
	expBias  = 1023 + mantBits // v = c · 2^(e − expBias) for a normal float
	pow10Min = -292            // pow10Table[0] approximates 10^pow10Min
	pow10Max = 324

	// maxFloatLen bounds the text of one float after its sign: 17 digits
	// behind "0.00000", plus the byte the decimal point shift uses.
	maxFloatLen = 32
)

// fixedLow and fixedHigh bound the magnitudes encoding/json writes without
// an exponent: [1e-6, 1e21).
const (
	fixedLow  = 1e-6
	fixedHigh = 1e21
)

// appendJSONFloat appends the finite f as encoding/json writes a float64:
// the shortest round-tripping digits, in exponent form below 1e-6 and from
// 1e21 on, where the exponent has no leading zero and a sign (e-7, e+21).
func appendJSONFloat(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		b = append(b, '-')
		u &^= 1 << 63
	}
	if u == 0 {
		return append(b, '0')
	}
	d, e := shortestDecimal(u&(1<<mantBits-1), u>>mantBits)
	n := decimalLen(d)

	// The text is written straight into b's spare capacity. Where a decimal
	// point follows the leading digits, the digits are written one byte to
	// the right and the leading ones shifted back over the gap.
	b = slices.Grow(b, maxFloatLen)
	t := b[len(b) : len(b)+maxFloatLen]
	abs := math.Float64frombits(u)
	if abs < fixedLow || abs >= fixedHigh {
		x := e + n - 1
		writeDigits(t[1:1+n], d)
		t[0] = t[1]
		end := 1
		if n > 1 {
			t[1] = '.'
			end = n + 1
		}
		t[end] = 'e'
		t[end+1] = '+'
		if x < 0 {
			t[end+1] = '-'
			x = -x
		}
		end += 2
		switch {
		case x >= 100:
			t[end] = byte('0' + x/100)
			x %= 100
			t[end+1], t[end+2] = twoDigits[2*x], twoDigits[2*x+1]
			end += 3
		case x >= 10:
			t[end], t[end+1] = twoDigits[2*x], twoDigits[2*x+1]
			end += 2
		default:
			t[end] = byte('0' + x)
			end++
		}
		return b[:len(b)+end]
	}

	switch dp := n + e; {
	case dp <= 0: // 0.000ddd
		z := -dp
		copy(t, "0.00000")
		writeDigits(t[2+z:2+z+n], d)
		return b[:len(b)+2+z+n]
	case dp < n: // ddd.ddd
		writeDigits(t[1:1+n], d)
		copy(t[:dp], t[1:1+dp])
		t[dp] = '.'
		return b[:len(b)+n+1]
	default: // ddd000
		writeDigits(t[:n], d)
		copy(t[n:dp], "000000000000000000000")
		return b[:len(b)+dp]
	}
}

// shortestDecimal returns the shortest decimal d·10^e inside the rounding
// interval of the positive finite float64 with the given mantissa and
// biased exponent fields, the one closest to it when several are, with
// ties to an even d. d has no trailing zero.
func shortestDecimal(mant, exp uint64) (d uint64, e int) {
	c, q := mant, 1-expBias
	if exp != 0 {
		c, q = 1<<mantBits|mant, int(exp)-expBias
		// An integer below 2^53 is its own shortest decimal.
		if -mantBits <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
			return trimZeros(c>>uint(-q), 0)
		}
	}

	// The interval [cbl, cbr]·2^(q−2) is open unless c is even. At a power
	// of two (other than the smallest normal) its lower half is half as wide.
	even := c&1 == 0
	closer := mant == 0 && exp > 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	k := q * 1262611 >> 22 // floor(log10(2^q))
	if closer {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22 // floor(log10(3/4 · 2^q))
	}

	// vb ≈ 4·v·10^−k, rounded to odd, and likewise the interval ends; h
	// aligns cb with g's binary exponent and lies in [1, 4].
	g := &pow10Table[-k-pow10Min]
	h := q + floorLog2Pow10(-k) + 1
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, cb<<h)
	vbr := roundToOdd(g, cbr<<h)
	lower, upper := vbl, vbr
	if !even {
		lower++
		upper--
	}

	// One digit fewer than s = ⌊vb/4⌋ when exactly one of its two neighbours
	// on the 10^(k+1) grid lies in the interval.
	s := vb >> 2
	if s >= 10 {
		sp := s / 10
		upIn := lower <= 40*sp
		wpIn := 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return trimZeros(sp, k+1)
		}
	}
	// Otherwise s or s+1: the only one inside, or the closer to vb. Had it
	// a trailing zero, the test above would have taken it with one digit
	// fewer, so only a one-digit s can round up to one: 10.
	uIn := lower <= 4*s
	wIn := 4*s+4 <= upper
	if uIn == wIn {
		mid := 4*s + 2
		wIn = vb > mid || vb == mid && s&1 != 0
	}
	if wIn {
		s++
	}
	if s == 10 {
		return 1, k + 1
	}
	return s, k
}

// trimZeros returns d·10^e with d's trailing decimal zeros moved into e.
func trimZeros(d uint64, e int) (uint64, int) {
	for d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// roundToOdd returns ⌊g·cp / 2^128⌋ with its lowest bit set when the
// fraction dropped is not zero: the round-to-odd product that keeps the
// comparisons in shortestDecimal exact.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xhi, _ := bits.Mul64(g[1], cp)
	yhi, ylo := bits.Mul64(g[0], cp)
	mid, carry := bits.Add64(ylo, xhi, 0)
	r := yhi + carry
	if mid > 1 {
		r |= 1
	}
	return r
}

// floorLog2Pow10 returns ⌊log2(10^e)⌋ for |e| ≤ 1233.
func floorLog2Pow10(e int) int { return e * 1741647 >> 19 }

// decimalLen returns the number of decimal digits of d, 1 ≤ d < 10^19.
func decimalLen(d uint64) int {
	n := (bits.Len64(d)*1233)>>12 + 1 // log10(2) ≈ 1233/4096; n or n−1 digits
	if d < pow10u64[n-1] {
		n--
	}
	return n
}

var pow10u64 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// twoDigits holds "00" through "99".
const twoDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// writeDigits writes the len(dst) decimal digits of d into dst from the
// right: eight digits at a time in 32-bit arithmetic, then pairs.
func writeDigits(dst []byte, d uint64) {
	i := len(dst)
	for d >= 1e8 {
		q := d / 1e8
		write8(dst[i-8:i], uint32(d-q*1e8))
		d, i = q, i-8
	}
	r := uint32(d)
	for r >= 100 {
		j := 2 * (r % 100)
		r /= 100
		i -= 2
		dst[i], dst[i+1] = twoDigits[j], twoDigits[j+1]
	}
	if r >= 10 {
		dst[i-2], dst[i-1] = twoDigits[2*r], twoDigits[2*r+1]
	} else {
		dst[i-1] = byte('0' + r)
	}
}

// write8 writes r < 10^8 as exactly eight digits, its two halves'
// divisions running side by side.
func write8(dst []byte, r uint32) {
	dst = dst[:8]
	hi, lo := r/10000, r%10000
	a, b := 2*(hi/100), 2*(hi%100)
	c, d := 2*(lo/100), 2*(lo%100)
	dst[0], dst[1] = twoDigits[a], twoDigits[a+1]
	dst[2], dst[3] = twoDigits[b], twoDigits[b+1]
	dst[4], dst[5] = twoDigits[c], twoDigits[c+1]
	dst[6], dst[7] = twoDigits[d], twoDigits[d+1]
}
