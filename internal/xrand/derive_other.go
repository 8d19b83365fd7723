//go:build !amd64

package xrand

// deriveAsm512 is unreachable here: the tensor tier is generic.
func deriveAsm512(vec *int64, pow *uint32, cooked *int64, seed uint64, n int) {
	panic("xrand: no simd")
}
