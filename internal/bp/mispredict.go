package bp

// MispredictMap records, for every conditional branch of a run in
// program order, whether the predictor mispredicted it: bit k covers
// the k-th conditional branch. It is the whole product of a predictor
// pass — every consumer (timing, screening, observer replay) reads it
// instead of running the predictor again — at one bit per conditional
// branch.
type MispredictMap struct {
	words []uint64
	n     uint64 // conditional branches covered
	count uint64 // set bits
}

// Len returns the number of conditional branches the map covers.
func (m *MispredictMap) Len() uint64 { return m.n }

// Count returns the number of mispredicted conditional branches.
func (m *MispredictMap) Count() uint64 { return m.count }

// Mispredicted reports whether the k-th conditional branch was
// mispredicted; k must be below Len.
func (m *MispredictMap) Mispredicted(k uint64) bool {
	return m.words[k>>6]>>(k&63)&1 != 0
}

// Append records the outcome of the next conditional branch.
func (m *MispredictMap) Append(miss bool) {
	if m.n&63 == 0 {
		m.words = append(m.words, 0)
	}
	if miss {
		m.words[m.n>>6] |= 1 << (m.n & 63)
		m.count++
	}
	m.n++
}

// Reset empties the map, keeping its storage for reuse.
func (m *MispredictMap) Reset() {
	m.words = m.words[:0]
	m.n, m.count = 0, 0
}
