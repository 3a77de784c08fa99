package mark

import (
	"math/rand"
	"sync"

	"repro/cmif"
)

// Profiles are the device classes a view op draws from.
var Profiles = []cmif.Profile{cmif.Laptop1991, cmif.Workstation1991, cmif.TextTerminal}

// ViewOp is one reader: which document, on which device, with which
// playback jitter.
type ViewOp struct {
	Doc, Profile int
	JitterSeed   uint64
}

// ViewSchedule is the seeded op sequence of a view workload. It is made
// of rounds; each round views every (document, profile) pair exactly
// once in a seeded order. A phase always ends on a round boundary, so
// the bytes and work per op are the same however many rounds a run
// completes, and only the order depends on the seed.
type ViewSchedule struct {
	seed  uint64
	docs  int
	mu    sync.Mutex
	round []([]ViewOp)
}

// NewViewSchedule builds the schedule for a corpus of docs documents.
func NewViewSchedule(seed uint64, docs int) *ViewSchedule {
	return &ViewSchedule{seed: seed, docs: docs}
}

// RoundSize is the number of ops in a round.
func (s *ViewSchedule) RoundSize() int { return s.docs * len(Profiles) }

// At returns the i'th op of the schedule.
func (s *ViewSchedule) At(i int) ViewOp {
	size := s.RoundSize()
	r := i / size
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.round) <= r {
		s.round = append(s.round, s.makeRound(len(s.round)))
	}
	return s.round[r][i%size]
}

func (s *ViewSchedule) makeRound(r int) []ViewOp {
	rnd := rand.New(rand.NewSource(int64(mix(s.seed, uint64(r)))))
	ops := make([]ViewOp, 0, s.RoundSize())
	for d := 0; d < s.docs; d++ {
		for p := range Profiles {
			ops = append(ops, ViewOp{Doc: d, Profile: p})
		}
	}
	rnd.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].JitterSeed = rnd.Uint64()
	}
	return ops
}

// mix is splitmix64 over a and b, for deriving independent streams.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
