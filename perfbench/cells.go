package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"

	"gpues/internal/ckpt"
	"gpues/internal/experiments"
	"gpues/internal/obs"
	"gpues/internal/sim"
	"gpues/internal/simserv"
	"gpues/internal/workloads"
)

// A cell is one simulation. It is a fabric job spec, so the same value
// names a campaign run, a single gpusim-style run and a fabric
// submission.
type cell = simserv.JobSpec

// cellKey names a cell in the expected-results table and in reports.
func cellKey(c cell) string {
	link, place := c.Link, c.Placement
	if link == "" {
		link = "nvlink"
	}
	if place == "" {
		place = "resident"
	}
	k := fmt.Sprintf("%s/%s/s%d/%s/%s", c.Benchmark, c.Scheme, max(c.Scale, 1), link, place)
	if c.Switching {
		k += "/switching"
	}
	if c.Local {
		k += "/local"
	}
	return k
}

// fig10Schemes are Figure 10's columns, baseline first.
var fig10Schemes = []string{"baseline", "wd-commit", "wd-lastcheck", "replay-queue"}

// cellSet is the input of every workload at one size.
type cellSet struct {
	fig10Benches []string
	paging       []string
	lazy         []string
	links        []string
}

func cellsFor(tiny bool) cellSet {
	if tiny {
		return cellSet{
			fig10Benches: []string{"stencil"},
			paging:       []string{"stencil"},
			lazy:         []string{"quadtree"},
			links:        []string{"nvlink"},
		}
	}
	return cellSet{
		fig10Benches: workloads.Names("parboil"),
		// The three Parboil kernels whose paged runs are dominated by
		// fault round trips and finish in a fraction of a second each.
		paging: []string{"bfs", "lbm", "stencil"},
		lazy:   append(workloads.Names("halloc"), "quadtree", "histo"),
		links:  []string{"nvlink", "pcie"},
	}
}

// fig10 is the Figure 10 cell set: resident runs at scale 1 under every
// scheme.
func (cs cellSet) fig10() []cell {
	var out []cell
	for _, b := range cs.fig10Benches {
		for _, s := range fig10Schemes {
			out = append(out, cell{Benchmark: b, Scheme: s})
		}
	}
	return out
}

// faults is the fault-runs cell set: demand paging at scale 2 with and
// without block switching, and lazy allocation with CPU and GPU-local
// fault handling, over each interconnect.
func (cs cellSet) faults() []cell {
	var out []cell
	for _, b := range cs.paging {
		for _, l := range cs.links {
			for _, sw := range []bool{false, true} {
				out = append(out, cell{Benchmark: b, Scheme: "replay-queue", Scale: 2, Link: l, Placement: "paging", Switching: sw})
			}
		}
	}
	for _, b := range cs.lazy {
		for _, l := range cs.links {
			for _, local := range []bool{false, true} {
				out = append(out, cell{Benchmark: b, Scheme: "replay-queue", Link: l, Placement: "lazy", Local: local})
			}
		}
	}
	return out
}

// fabricPool is the set the fabric's job mix is drawn from: the
// baseline and replay-queue Figure 10 cells plus the NVLink fault cells.
func (cs cellSet) fabricPool() []cell {
	var out []cell
	for _, c := range cs.fig10() {
		if c.Scheme == "baseline" || c.Scheme == "replay-queue" {
			out = append(out, c)
		}
	}
	for _, c := range cs.faults() {
		if c.Link == "nvlink" {
			out = append(out, c)
		}
	}
	return out
}

// all returns every distinct cell of every workload.
func (cs cellSet) all() []cell {
	seen := map[string]bool{}
	var out []cell
	for _, c := range append(cs.fig10(), cs.faults()...) {
		if k := cellKey(c); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// permute returns cells in the order a seeded shuffle gives.
func permute[T any](xs []T, rng *rand.Rand) []T {
	out := make([]T, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// expectedCell pins one cell's simulated statistics.
type expectedCell struct {
	Cycles      int64  `json:"cycles"`
	Committed   int64  `json:"committed"`
	StallDigest string `json:"stall_digest"`
}

// expectedTable is the benchmark's golden record: every cell's
// statistics and the Figure 10 campaign's normalized values.
type expectedTable struct {
	Cells map[string]expectedCell       `json:"cells"`
	Fig10 map[string]map[string]float64 `json:"fig10"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (*expectedTable, error) {
	var t expectedTable
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &t, nil
}

// stallDigest folds the nine-reason stall breakdown into one value.
func stallDigest(b obs.StallBreakdown) string {
	h := ckpt.NewHasher()
	for _, v := range b {
		h.U64(uint64(v))
	}
	return fmt.Sprintf("%016x", h.Sum())
}

// checkCounts compares a cell's cycles and committed instructions with
// the table.
func (t *expectedTable) checkCounts(c cell, cycles, committed int64) error {
	k := cellKey(c)
	e, ok := t.Cells[k]
	switch {
	case !ok:
		return fmt.Errorf("%s: no expected entry", k)
	case cycles != e.Cycles:
		return fmt.Errorf("%s: %d cycles, expected %d", k, cycles, e.Cycles)
	case committed != e.Committed:
		return fmt.Errorf("%s: %d committed warp instructions, expected %d", k, committed, e.Committed)
	}
	return nil
}

// checkResult compares a whole simulation result with the table.
func (t *expectedTable) checkResult(c cell, r *sim.Result) error {
	if err := t.checkCounts(c, r.Cycles, r.Committed); err != nil {
		return err
	}
	if d := stallDigest(r.Stalls); d != t.Cells[cellKey(c)].StallDigest {
		return fmt.Errorf("%s: stall digest %s, expected %s", cellKey(c), d, t.Cells[cellKey(c)].StallDigest)
	}
	return nil
}

// checkFig10 compares a campaign's normalized values with the table.
func (t *expectedTable) checkFig10(res *experiments.Result) []string {
	var bad []string
	for _, row := range res.Rows {
		for col, v := range row.Values {
			if want, ok := t.Fig10[row.Benchmark][col]; !ok || v != want {
				bad = append(bad, fmt.Sprintf("fig10 %s/%s: normalized %v, expected %v", row.Benchmark, col, v, want))
			}
		}
	}
	return bad
}

// writeExpected regenerates the table by simulating every cell and
// running the Figure 10 campaign once.
func writeExpected(path string) error {
	cells := cellsFor(false).all()
	t := expectedTable{Cells: map[string]expectedCell{}, Fig10: map[string]map[string]float64{}}
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for _, c := range cells {
		c := c
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := func() (*sim.Result, error) {
				cfg, spec, err := c.Build()
				if err != nil {
					return nil, err
				}
				return sim.RunSpec(cfg, spec)
			}()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", cellKey(c), err)
				}
				return
			}
			t.Cells[cellKey(c)] = expectedCell{Cycles: r.Cycles, Committed: r.Committed, StallDigest: stallDigest(r.Stalls)}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	res, err := experiments.Fig10(experiments.Options{Scale: 1, Parallelism: parallelism})
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		t.Fig10[row.Benchmark] = row.Values
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
