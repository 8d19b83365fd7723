package tensor

// The convolution plumbing around the GEMMs: im2col/col2im between one
// item's zero-bordered planes and its column matrix, the copies in and
// out of those planes' interior, and the pooling backward's broadcast.
// At the avx512 tier each runs as one conv_amd64.s call (im2col for
// k ≤ 4, col2im for k ≤ 16); the Go bodies below are every other path
// and the oracle the assembly is held to. Per element, every tier
// performs the same operations: im2col and CopyInterior are a copy,
// FillRows one product, and col2im adds each plane element's terms one
// at a time, in ascending output-position order.

// Im2col unrolls one item's receptive fields, read from its
// zero-bordered planes src (inCh, ph, pw), into dst laid out transposed:
// (oh·ow) rows of (inCh·k·k) taps, one row per output position. Output
// position (oy, ox) reads the k×k window whose corner is (oy·s, ox·s) in
// padded coordinates; every window must lie inside the planes.
func Im2col(dst, src []Float, inCh, ph, pw, k, s, oh, ow int) {
	if convZMM(dst, src, inCh, ph, pw, k, s, oh, ow, 4) {
		// The kernel's 16-byte stores reach 4−k floats past a kernel
		// row: the positions whose rows start within that reach of
		// dst's end store under a mask.
		ck := inCh * k * k
		im2colAsm512(&dst[0], &src[0], inCh, ph, pw, k, s, oh, ow, (4-k+ck-1)/ck)
		return
	}
	im2col(dst, src, inCh, ph, pw, k, s, oh, ow)
}

// Col2im scatter-adds a transposed column-gradient matrix src (oh·ow ×
// inCh·k·k) into one item's zero-bordered gradient planes dst (inCh, ph,
// pw): the adjoint of Im2col, window for window. Every plane element
// receives its additions in ascending output-position order.
func Col2im(dst, src []Float, inCh, ph, pw, k, s, oh, ow int) {
	if convZMM(src, dst, inCh, ph, pw, k, s, oh, ow, 16) {
		col2imAsm512(&dst[0], &src[0], inCh, ph, pw, k, s, oh, ow)
		return
	}
	col2im(dst, src, inCh, ph, pw, k, s, oh, ow)
}

// convZMM checks that every window lies inside the planes, and reports
// whether the avx512 kernel runs: at that tier, for 1 ≤ k ≤ maxK and a
// shape that is not empty, once both buffers are checked to hold what
// it touches.
func convZMM(col, plane []Float, inCh, ph, pw, k, s, oh, ow, maxK int) bool {
	if s < 1 || oh > 0 && (oh-1)*s+k > ph || ow > 0 && (ow-1)*s+k > pw {
		panic("tensor: im2col window outside the planes")
	}
	if !simd512 || k < 1 || k > maxK || inCh <= 0 || oh <= 0 || ow <= 0 {
		return false
	}
	_, _ = col[oh*ow*inCh*k*k-1], plane[inCh*ph*pw-1]
	return true
}

// im2col is Im2col's Go body.
func im2col(dst, src []Float, inCh, ph, pw, k, s, oh, ow int) {
	kk, pp := k*k, ph*pw
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			drow := dst[(oy*ow+ox)*inCh*kk:][:inCh*kk]
			win := src[oy*s*pw+ox*s:]
			if k == 3 {
				for ic := 0; ic < inCh; ic++ {
					p := win[ic*pp:]
					s0, s1, s2 := p[:3], p[pw:pw+3], p[2*pw:2*pw+3]
					d := drow[ic*9:][:9]
					d[0], d[1], d[2] = s0[0], s0[1], s0[2]
					d[3], d[4], d[5] = s1[0], s1[1], s1[2]
					d[6], d[7], d[8] = s2[0], s2[1], s2[2]
				}
				continue
			}
			for ic := 0; ic < inCh; ic++ {
				for ky := 0; ky < k; ky++ {
					copy(drow[ic*kk+ky*k:][:k], win[ic*pp+ky*pw:])
				}
			}
		}
	}
}

// col2im is Col2im's Go body.
func col2im(dst, src []Float, inCh, ph, pw, k, s, oh, ow int) {
	kk, pp := k*k, ph*pw
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			srow := src[(oy*ow+ox)*inCh*kk:][:inCh*kk]
			win := dst[oy*s*pw+ox*s:]
			if k == 3 {
				for ic := 0; ic < inCh; ic++ {
					p := win[ic*pp:]
					d0, d1, d2 := p[:3], p[pw:pw+3], p[2*pw:2*pw+3]
					v := srow[ic*9:][:9]
					d0[0] += v[0]
					d0[1] += v[1]
					d0[2] += v[2]
					d1[0] += v[3]
					d1[1] += v[4]
					d1[2] += v[5]
					d2[0] += v[6]
					d2[1] += v[7]
					d2[2] += v[8]
				}
				continue
			}
			for ic := 0; ic < inCh; ic++ {
				for ky := 0; ky < k; ky++ {
					drow := win[ic*pp+ky*pw:][:k]
					for i, v := range srow[ic*kk+ky*k:][:k] {
						drow[i] += v
					}
				}
			}
		}
	}
}

// CopyInterior moves c planes of h×w floats between their plain layout
// plain (c, h, w) and the interior of the zero-bordered layout padded
// (c, h+2·pad, w+2·pad): into the padded planes when in is set, out of
// them otherwise. The border is not touched.
func CopyInterior(padded, plain []Float, c, h, w, pad int, in bool) {
	if c <= 0 || h <= 0 || w <= 0 {
		return
	}
	ph, pw := h+2*pad, w+2*pad
	_, _ = padded[c*ph*pw-1], plain[c*h*w-1]
	if simd512 {
		p := &padded[pad*pw+pad]
		if in {
			copyPlanesAsm512(p, &plain[0], c, h, w, pw, w, ph*pw, h*w)
		} else {
			copyPlanesAsm512(&plain[0], p, c, h, w, w, pw, h*w, ph*pw)
		}
		return
	}
	copyInterior(padded, plain, c, h, w, pad, in)
}

// copyInterior is CopyInterior's Go body.
func copyInterior(padded, plain []Float, c, h, w, pad int, in bool) {
	ph, pw := h+2*pad, w+2*pad
	for ic := 0; ic < c; ic++ {
		for y := 0; y < h; y++ {
			p := padded[(ic*ph+y+pad)*pw+pad:][:w]
			q := plain[(ic*h+y)*w:][:w]
			if in {
				copy(p, q)
			} else {
				copy(q, p)
			}
		}
	}
}

// FillRows sets dst, len(vals) rows of n floats, row r to vals[r]·scale.
func FillRows(dst, vals []Float, n int, scale Float) {
	if len(vals) == 0 || n <= 0 {
		return
	}
	_ = dst[len(vals)*n-1]
	if simd512 {
		fillRowsAsm512(&dst[0], &vals[0], len(vals), n, scale)
		return
	}
	fillRows(dst, vals, n, scale)
}

// fillRows is FillRows' Go body.
func fillRows(dst, vals []Float, n int, scale Float) {
	for r, v := range vals {
		gv := v * scale
		row := dst[r*n:][:n]
		for i := range row {
			row[i] = gv
		}
	}
}
