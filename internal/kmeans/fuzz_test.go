package kmeans

import (
	"math"
	"testing"
)

// FuzzBoundedMatchesPlain decodes arbitrary bytes into a small clustering
// problem and requires the bounded kernel (Elkan bounds, separation test,
// pruned seeding) to reproduce the plain kernel bit for bit. The seed
// corpus in testdata/fuzz/FuzzBoundedMatchesPlain, which plain `go test`
// replays, covers duplicates, zero vectors, coincident centroids, the
// subsampling path and extreme coordinate scales.
func FuzzBoundedMatchesPlain(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		points, k, cfg := decodeFuzzProblem(data)
		plainCfg := cfg
		plainCfg.Workers = 1
		plain, err := RunPlain(points, k, plainCfg)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := Run(points, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, plain, bounded, "fuzz")
	})
}

// decodeFuzzProblem maps bytes to n ≤ 64 points of dimension d ≤ 8 and a
// k ≤ 12 run configuration. Missing bytes read as zero. The header is n,
// d, k, seed, sample size (0 or ≥ n: no subsampling), a power-of-two
// coordinate scale in [2⁻¹⁶, 2¹⁵] and the bounded run's worker count.
// Each point then starts with a control byte: 0b11xxxxxx repeats an
// earlier point, 0b10xxxxxx is the zero vector, anything else is followed
// by d coordinates in steps of 1/8 over [−16, 16).
func decodeFuzzProblem(data []byte) ([][]float64, int, Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next()%64)
	d := 1 + int(next()%8)
	k := 1 + int(next()%12)
	cfg := Config{Restarts: 2, MaxIter: 25, Seed: uint64(next())}
	if s := int(next()) % (n + 1); s < n {
		cfg.SampleSize = s
	}
	scale := math.Ldexp(1, int(next()%32)-16)
	cfg.Workers = 1 + int(next()%4)
	points := make([][]float64, n)
	for i := range points {
		ctl := next()
		switch {
		case ctl&0xc0 == 0xc0 && i > 0:
			points[i] = append([]float64(nil), points[int(ctl)%i]...)
		case ctl&0xc0 == 0x80:
			points[i] = make([]float64, d)
		default:
			p := make([]float64, d)
			for j := range p {
				p[j] = float64(int8(next())) / 8 * scale
			}
			points[i] = p
		}
	}
	return points, k, cfg
}
