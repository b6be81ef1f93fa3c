package kmeans

import (
	"fmt"
	"math"
	"sync"
	"time"

	"specsampling/internal/obs"
	"specsampling/internal/sched"
)

// Ladder memoises BestK's per-candidate work over one point set: the run
// and BIC score of every candidate k it has evaluated.
//
// The invariant it rests on: a candidate's seed derives from the base seed
// and k alone (candidateConfig), never from maxK. A candidate k therefore
// scores the same under every maxK whose grid contains it, so BestK at a
// new maxK only runs the candidates the ladder has not scored, plus the
// chosen k when only its score is known (SeedScores). BestK, BestKWeighted
// and a ladder's own BestK all go through the same scoring step and the
// same pick, so they choose identically.
//
// A Ladder is safe for concurrent use. Its lock guards the memo only and is
// never held across a k-means run; two callers racing for the same
// candidate both compute it and store the same result.
type Ladder struct {
	n, d int
	cfg  Config
	run  func(k int, cfg Config) (*Result, error)

	mu     sync.Mutex
	scores map[int]float64
	runs   map[int]*Result
}

// NewLadder flattens points once and returns an empty ladder that runs its
// candidates through the bounded kernel under cfg, pooling Lloyd scratch
// buffers across candidates (concurrent candidates allocate at most one
// scratch per worker). Every buffer is fully rewritten before use, so the
// results are bit-identical to per-candidate Run calls.
func NewLadder(points [][]float64, cfg Config) (*Ladder, error) {
	if err := validatePoints(points, 1); err != nil {
		return nil, err
	}
	m := flatten(points)
	var pool sync.Pool
	return newLadder(m.n, m.d, cfg, func(k int, sub Config) (*Result, error) {
		sc, _ := pool.Get().(*scratch)
		if sc == nil {
			sc = &scratch{}
		}
		defer pool.Put(sc)
		return runFlat(m, k, sub, sc, true)
	}), nil
}

// newLadder returns an empty ladder over n points of dimension d whose
// candidates run through run.
func newLadder(n, d int, cfg Config, run func(int, Config) (*Result, error)) *Ladder {
	return &Ladder{
		n: n, d: d, cfg: cfg, run: run,
		scores: map[int]float64{},
		runs:   map[int]*Result{},
	}
}

// SeedScores records BIC scores a previous BestK over the same points and
// the same Config (Workers aside) computed, so the ladder does not run
// those candidates again for their scores. Scores the ladder already holds
// are kept.
func (l *Ladder) SeedScores(scores map[int]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	//lint:ignore detmap map-to-map copy is order-independent
	for k, s := range scores {
		if _, ok := l.scores[k]; !ok {
			l.scores[k] = s
		}
	}
}

// BestK picks k over candidateKs(maxK) by SimPoint's BIC rule (see the
// package-level BestK) and returns the chosen clustering plus the score of
// every candidate. Only unscored candidates run, in parallel across
// cfg.Workers goroutines.
func (l *Ladder) BestK(maxK int, threshold float64) (*Result, map[int]float64, error) {
	if maxK <= 0 {
		return nil, nil, fmt.Errorf("kmeans: maxK = %d", maxK)
	}
	candidates := candidateKs(maxK)
	if err := l.score(candidates); err != nil {
		return nil, nil, err
	}
	scores := make(map[int]float64, len(candidates))
	l.mu.Lock()
	for _, k := range candidates {
		scores[k] = l.scores[k]
	}
	k := pickK(candidates, scores, threshold)
	res := l.runs[k]
	l.mu.Unlock()
	if res != nil {
		return res, scores, nil
	}
	// The chosen k was scored elsewhere (SeedScores): run it once, with the
	// whole worker budget for its assignment kernel.
	res, err := l.run(k, l.candidateConfig(k, l.cfg.Workers))
	if err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	l.runs[k] = res
	l.mu.Unlock()
	return res, scores, nil
}

// candidateConfig is the Config candidate k runs under: the base config
// with a seed derived from the base seed and k only.
func (l *Ladder) candidateConfig(k, workers int) Config {
	sub := l.cfg
	sub.Seed = l.cfg.Seed ^ uint64(k)*0x9e37
	sub.Workers = workers
	return sub
}

// score runs and scores every candidate the ladder has no score for. The
// runs are independent and execute in parallel across cfg.Workers
// goroutines; an error is reported for the lowest failing k, as a serial
// sweep would.
func (l *Ladder) score(candidates []int) error {
	l.mu.Lock()
	var missing []int
	for _, k := range candidates {
		if _, ok := l.scores[k]; !ok {
			missing = append(missing, k)
		}
	}
	l.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}

	workers := sched.Workers(l.cfg.Workers)
	if workers > len(missing) {
		workers = len(missing)
	}
	inner := l.cfg.Workers
	if workers > 1 {
		// The candidate sweep already saturates the worker budget; keep
		// each run's assignment kernel serial to avoid oversubscription.
		// Results do not depend on this choice.
		inner = 1
	}
	timed := obs.Enabled()
	res := make([]*Result, len(missing))
	errs := make([]error, len(missing))
	runOne := func(i int) {
		k := missing[i]
		var began time.Time
		if timed {
			//lint:ignore nondet instrumentation-only clock read, gated on obs.Enabled; never flows into results
			began = time.Now()
		}
		res[i], errs[i] = l.run(k, l.candidateConfig(k, inner))
		if timed {
			//lint:ignore nondet instrumentation-only duration for the candidate-k histogram; never flows into results
			candidateKMS.Observe(float64(time.Since(began).Microseconds()) / 1e3)
		}
	}
	if workers <= 1 {
		for i := range missing {
			runOne(i)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range missing {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runOne(i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for i, k := range missing {
		l.scores[k] = bic(l.n, l.d, res[i])
		l.runs[k] = res[i]
	}
	return nil
}

// pickK is SimPoint's BIC rule: the smallest candidate whose score reaches
// at least threshold (e.g. 0.9; out-of-range values use 0.9) of the way
// from the lowest to the highest score. candidates are ascending.
func pickK(candidates []int, scores map[int]float64, threshold float64) int {
	if threshold <= 0 || threshold > 1 {
		threshold = 0.9
	}
	minB, maxB := math.Inf(1), math.Inf(-1)
	for _, k := range candidates {
		if s := scores[k]; s < minB {
			minB = s
		}
		if s := scores[k]; s > maxB {
			maxB = s
		}
	}
	span := maxB - minB
	for _, k := range candidates {
		if span == 0 || scores[k] >= minB+threshold*span {
			return k
		}
	}
	// Unreachable: the max-scoring k always passes.
	return candidates[len(candidates)-1]
}
