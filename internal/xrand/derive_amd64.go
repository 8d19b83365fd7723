//go:build amd64

package xrand

// deriveAsm512 writes register words [0, n) for the normalized seed,
// eight per ZMM step (n a multiple of 8): the word function of
// Source.word, bit for bit. AVX-512F only.
//
//go:noescape
func deriveAsm512(vec *int64, pow *uint32, cooked *int64, seed uint64, n int)
