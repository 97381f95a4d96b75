package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// contentionEdgeScenario puts events on both sides of each contention
// boundary event at the same timestamp: a rack outage at From and at To is
// queued at Config time, ahead of the boundary events, so it pops first;
// task ends (60 s tasks started at 0 end at 2m) and an arrival at From and
// at To are queued later, so they pop after. A contention window is a
// function of the clock, so every one of those passes must already see the
// new factor.
func contentionEdgeScenario(t *testing.T) (Config, []JobConfig) {
	t.Helper()
	from, to := 2*time.Minute, 4*time.Minute
	cfg := Config{
		Machines:        4,
		SlotsPerMachine: 2,
		Seed:            3,
		Contention:      []ContentionWindow{{From: from, To: to, Frac: 0.5}},
		RackOutages: []RackOutage{
			{At: from, FirstMachine: 3, Machines: 1, Duration: 30 * time.Second},
			{At: to, FirstMachine: 2, Machines: 1, Duration: 30 * time.Second},
		},
	}
	jobs := []JobConfig{
		{Profile: bigJob(t, "slo", 30, time.Minute), Guarantee: 5, Tracked: true, NoTrace: true},
		{Profile: bigJob(t, "bg", 60, 70*time.Second), Guarantee: 3},
		{Profile: bigJob(t, "late", 8, 30*time.Second), Guarantee: 2, Start: from},
		{Profile: bigJob(t, "later", 8, 30*time.Second), Guarantee: 3, Start: to},
	}
	return cfg, jobs
}

// TestContentionBoundaryOrder pins the effective guarantee and class
// partition of every scheduling pass at a window's From and To. The want
// lines were recorded from the engine that evaluated the window from the
// clock on every call, before the factor became a field; the first pass at
// each boundary comes from the rack outage, popped before the boundary
// event.
func TestContentionBoundaryOrder(t *testing.T) {
	cfg, jobs := contentionEdgeScenario(t)
	var got []string
	prev := checkPass
	t.Cleanup(func() { checkPass = prev })
	checkPass = func(c *Cluster) {
		checkAgainstRef(c)
		if c.now != cfg.Contention[0].From && c.now != cfg.Contention[0].To {
			return
		}
		line := fmt.Sprintf("t=%v", c.now)
		for _, jr := range c.jobs {
			if jr.arrived && !jr.completed {
				line += fmt.Sprintf(" j%d:eff=%d,guar=%d,run=%d", jr.id, c.effectiveGuarantee(jr), jr.guarCount, jr.liveRunning)
			}
		}
		got = append(got, line)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jc := range jobs {
		if _, err := c.Submit(jc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"t=2m0s j0:eff=2,guar=2,run=3 j1:eff=1,guar=1,run=3", // rack outage, before the boundary event
		"t=2m0s j0:eff=2,guar=2,run=3 j1:eff=1,guar=1,run=3", // the boundary event
		"t=2m0s j0:eff=2,guar=2,run=3 j1:eff=1,guar=1,run=3 j2:eff=1,guar=0,run=0",
		"t=2m0s j0:eff=2,guar=2,run=2 j1:eff=1,guar=1,run=2 j2:eff=1,guar=1,run=1",
		"t=2m0s j0:eff=2,guar=2,run=2 j1:eff=1,guar=1,run=2 j2:eff=1,guar=1,run=1",
		"t=2m0s j0:eff=2,guar=1,run=1 j1:eff=1,guar=1,run=3 j2:eff=1,guar=1,run=1",
		"t=4m0s j0:eff=5,guar=2,run=2 j1:eff=3,guar=3,run=3 j2:eff=2,guar=1,run=1", // rack outage, before the boundary event
		"t=4m0s j0:eff=5,guar=2,run=2 j1:eff=3,guar=3,run=3 j2:eff=2,guar=1,run=1", // the boundary event
		"t=4m0s j0:eff=5,guar=2,run=2 j1:eff=3,guar=3,run=3 j2:eff=2,guar=1,run=1 j3:eff=3,guar=0,run=0",
		"t=4m0s j0:eff=5,guar=2,run=2 j1:eff=3,guar=2,run=2 j2:eff=2,guar=1,run=1 j3:eff=3,guar=0,run=0",
		"t=4m0s j0:eff=5,guar=3,run=3 j1:eff=3,guar=2,run=2 j2:eff=2,guar=0,run=0 j3:eff=3,guar=0,run=0",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("boundary passes diverged from the clock-evaluated window:\n got:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestContentionEpochRunZeroAllocs: on a warm reused engine, a replay that
// crosses contention windows and re-sets every guarantee from OnEpoch
// allocates nothing inside Run — the factor is a field re-derived on clock
// moves, and the dirty set is intrusive.
func TestContentionEpochRunZeroAllocs(t *testing.T) {
	base, fg, bg := steadyCfg()
	var hs []*Handle
	epoch := 0
	cfg := base
	cfg.Contention = []ContentionWindow{
		{From: time.Minute, To: 3 * time.Minute, Frac: 0.5},
		{From: 2 * time.Minute, To: 4 * time.Minute, Frac: 0.25},
	}
	cfg.EpochPeriod = 20 * time.Second
	cfg.OnEpoch = func(time.Duration) bool {
		epoch++
		for i, h := range hs {
			h.SetGuarantee(1 + (epoch+i)%6)
		}
		return true
	}
	eng := NewEngine()
	run := func() uint64 {
		c, err := eng.Reset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs, epoch = hs[:0], 0
		for _, jc := range []JobConfig{bg, fg} {
			h, err := c.Submit(jc)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = c.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 3; i++ {
		run() // warm every pool and backing array
	}
	for i := 0; i < 5; i++ {
		if n := run(); n != 0 {
			t.Fatalf("warm Run allocated %d objects, want 0", n)
		}
	}
}
