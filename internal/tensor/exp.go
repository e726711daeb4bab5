package tensor

import "math"

// Exp's constants: fdlibm's e_exp.c, as in Go's math/exp.go.
const (
	expLn2Hi     = 6.93147180369123816490e-01
	expLn2Lo     = 1.90821492927058770002e-10
	expLog2e     = 1.44269504088896338700e+00
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
	expNearZero  = 1.0 / (1 << 28)

	expP1 = 1.66666666666666657415e-01
	expP2 = -2.77777777770155933842e-03
	expP3 = 6.61375632143793436117e-05
	expP4 = -1.65339022054652515390e-06
	expP5 = 4.13813679705723846039e-08
)

// Exp returns e**x: fdlibm's algorithm (the one Go's portable math.Exp
// uses), within 1 ulp of the exact result. Its result is a function of the
// bits of x alone, on every GOARCH and every host: each product is rounded
// on its own by an explicit float64 conversion, so no compiler may fuse it
// into a multiply-add, and no assembly form of it runs. math.Exp promises
// neither — on amd64 it switches to fused instructions when the CPU has
// them. Softmax's AVX kernel and SoftmaxRows's AVX-512 one compute the same
// operation sequence four and eight lanes at a time, bit for bit.
//
// Special cases: Exp(NaN) is that NaN, Exp(+Inf) = +Inf, Exp(-Inf) = +0,
// x above 709.78… overflows to +Inf, x below -745.13… underflows to +0,
// and |x| < 2⁻²⁸ gives 1+x.
func Exp(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	case -expNearZero < x && x < expNearZero:
		return 1 + x
	}
	// Reduce x = k·ln2 + r with |r| ≤ ln2/2, r = hi - lo for extra
	// precision, k rounded half away from zero.
	half := 0.5
	if x < 0 {
		half = -0.5
	}
	k := int32(float64(expLog2e*x) + half)
	fk := float64(k)
	hi := x - float64(fk*expLn2Hi)
	lo := float64(fk * expLn2Lo)
	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(expP1+float64(t*(expP2+float64(t*(expP3+float64(t*(expP4+float64(t*expP5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	// y·2ᵏ as two exact power-of-two scalings, 2^⌊k/2⌋ then 2^(k-⌊k/2⌋):
	// both factors are normal for every k the range checks leave, and y·2^⌊k/2⌋
	// is exact, so the product is rounded once — to a subnormal where the
	// result is one — exactly as math.Ldexp rounds it.
	k1 := k >> 1
	return y * expScale(k1) * expScale(k-k1)
}

// expScale returns 2ᵏ for a k in the normal exponent range, built from its
// bits.
func expScale(k int32) float64 {
	return math.Float64frombits(uint64(k+1023) << 52)
}
