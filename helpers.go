package fedtrans

import "math/rand"

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
