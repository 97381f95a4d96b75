package control

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/jockeysim/jockey/internal/model"
	"github.com/jockeysim/jockey/internal/utility"
)

// argmaxRef is §4.3's rule as the controller ran it before its early stop:
// the expected utility E[U(t_r + S·C(p, a))] of every candidate, from
// refExpectedUtility, then the first candidate that beats every earlier
// best by more than 1e-9. It shares no code with Config.argmax.
func argmaxRef(p model.Predictor, st model.State, cands []int, slack float64, u *utility.PiecewiseLinear) int {
	us := make([]float64, len(cands))
	for i, a := range cands {
		us[i] = refExpectedUtility(p, st, a, slack, u)
	}
	best := 0
	for i := range us {
		if us[i] > us[best]+1e-9 {
			best = i
		}
	}
	return cands[best]
}

// cellPredictor serves a fixed sorted sample per allocation and logs the
// allocations it is asked for.
type cellPredictor struct {
	cells map[int][]time.Duration
	asked []int
}

func (p *cellPredictor) Samples(_ model.State, a int) []time.Duration {
	p.asked = append(p.asked, a)
	return p.cells[a]
}

// argmaxInput decodes a fuzz input: the candidate grid and one sorted
// sample per candidate from cells, the elapsed time as an offset in
// seconds from the curve's knee, and a slack in [1, 5).
func argmaxInput(u *utility.PiecewiseLinear, offset int16, slack float64, cells []byte) (*cellPredictor, []int, model.State, float64) {
	next := func() int {
		if len(cells) == 0 {
			return 0
		}
		b := cells[0]
		cells = cells[1:]
		return int(b)
	}
	n := 1 + next()%8
	unit := [...]time.Duration{time.Second, 10 * time.Second, time.Minute, 10 * time.Minute}[next()%4]
	pred := &cellPredictor{cells: make(map[int][]time.Duration)}
	var grid []int
	a := 0
	for range n {
		a += 1 + next()%4
		grid = append(grid, a)
		var sample []time.Duration
		for range next() % 6 { // 0 is an empty cell
			b := next()
			d := time.Duration(b) * unit
			if b == 255 { // padded, it overflows elapsed + S·C
				d = math.MaxInt64 / 2
			}
			sample = append(sample, d)
		}
		slices.Sort(sample)
		pred.cells[a] = sample
	}
	elapsed := utilityKnee(u)
	if d := time.Duration(offset) * time.Second; d < 0 || elapsed <= math.MaxInt64-d {
		elapsed += d
	}
	if elapsed < 0 {
		elapsed = 0
	}
	if math.IsNaN(slack) || math.IsInf(slack, 0) {
		slack = 0
	}
	return pred, grid, model.State{Elapsed: elapsed}, 1 + math.Mod(math.Abs(slack), 4)
}

// FuzzArgmaxMatchesReference checks the early-stopping argmax against the
// full scan on generated per-candidate samples (empty cells, exact ties,
// flat cells, padded times that overflow), curves from utility.Parse (huge
// magnitudes and non-monotone ones included), elapsed times either side of
// the knee and slacks in [1, 5). The raw allocation must equal the
// reference's, through argmax, a Controller with and without a dead zone,
// and Static. The early path must ask the predictor for a prefix of the
// candidates, each once; the staging path for every candidate, with the
// reference's utilities.
func FuzzArgmaxMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, offset int16, slack float64, cells []byte) {
		u, err := utility.Parse(spec)
		if err != nil {
			return
		}
		pred, grid, st, slack := argmaxInput(u, offset, slack, cells)
		want := argmaxRef(pred, st, grid, slack, u)
		cfg := Config{Predictor: pred, Utility: u, Candidates: grid, Slack: slack}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}

		pred.asked = nil
		if got := cfg.argmax(st, u, stopUtility(u), nil); got != want {
			t.Fatalf("argmax = %d, reference = %d (%v, %+v, slack %v, cells %v)", got, want, u, st, slack, pred.cells)
		}
		if len(pred.asked) == 0 || !slices.Equal(pred.asked, grid[:len(pred.asked)]) {
			t.Fatalf("argmax asked for %v, not a prefix of %v", pred.asked, grid)
		}

		pred.asked = nil
		var rec DecisionRecord
		if got := cfg.argmax(st, u, stopUtility(u), &rec); got != want {
			t.Fatalf("staging argmax = %d, reference = %d", got, want)
		}
		if len(rec.Candidates) != len(grid) {
			t.Fatalf("staged %d of %d candidates", len(rec.Candidates), len(grid))
		}
		for i, c := range rec.Candidates {
			ref := refExpectedUtility(pred, st, grid[i], slack, u)
			if c.Alloc != grid[i] || math.Float64bits(c.Utility) != math.Float64bits(ref) {
				t.Fatalf("staged candidate %d = %+v, want alloc %d utility %v", i, c, grid[i], ref)
			}
		}

		for _, dz := range []time.Duration{-1, DefaultDeadZone} {
			ctrl, err := NewController(Config{Predictor: pred, Utility: u, Candidates: grid, Slack: slack, DeadZone: dz})
			if err != nil {
				t.Fatal(err)
			}
			effU, w := u, want
			if dz > 0 {
				effU = u.ShiftEarlier(dz)
				w = argmaxRef(pred, st, grid, slack, effU)
			}
			if got := ctrl.Decide(st).Raw; got != w {
				t.Fatalf("dead zone %v: controller raw = %d, reference = %d", dz, got, w)
			}
		}
		static, err := NewStatic(Config{Predictor: pred, Utility: u, Candidates: grid, Slack: slack})
		if err != nil {
			t.Fatal(err)
		}
		if got := static.Decide(st).Raw; got != want {
			t.Fatalf("static raw = %d, reference = %d", got, want)
		}
	})
}

// TestArgmaxStopsAtMaxUtility pins the saving: under the standard curve the
// argmax asks the predictor only for the candidates up to the first one
// whose expected utility reaches 1, while a recorded tick still evaluates
// every candidate and picks the same allocation.
func TestArgmaxStopsAtMaxUtility(t *testing.T) {
	pred := &cellPredictor{cells: make(map[int][]time.Duration)}
	for _, a := range candidates() {
		pred.cells[a] = []time.Duration{500 * time.Minute / time.Duration(a)}
	}
	cfg := Config{Predictor: pred, Utility: utility.Deadline(30 * time.Minute), Candidates: candidates()}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	st := model.State{FracDone: []float64{0, 0}}
	// 1.2 · 500m / a ≤ 30m first holds at a = 20.
	if got := cfg.argmax(st, cfg.Utility, stopUtility(cfg.Utility), nil); got != 20 || len(pred.asked) != 20 {
		t.Errorf("argmax = %d after %d queries, want 20 after 20", got, len(pred.asked))
	}
	var rec DecisionRecord
	if got := cfg.argmax(st, cfg.Utility, stopUtility(cfg.Utility), &rec); got != 20 || len(rec.Candidates) != 100 {
		t.Errorf("staging argmax = %d with %d staged candidates, want 20 with 100", got, len(rec.Candidates))
	}
	if u := utility.SoftDeadline(time.Hour, time.Hour); stopUtility(u) != 1 {
		t.Errorf("soft-deadline stop utility = %v, want 1", stopUtility(u))
	}
	huge, err := utility.Parse("0:1e308, 1h:-1e308")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(stopUtility(huge), 1) {
		t.Errorf("a curve peaking at 1e308 must scan every candidate, stop utility = %v", stopUtility(huge))
	}
}
