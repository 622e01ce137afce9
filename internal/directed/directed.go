// Package directed implements directed kernel fuzzing in the style of
// SyzDirect (§5.4): instead of maximizing total coverage, the fuzzer tries
// to reach one user-specified target code location, selecting seeds by
// static distance to the target and biasing mutations toward the syscalls
// and resources the target's handler needs. Snowplow-D adds PMM argument
// localization on top, querying the model with frontier blocks nearest the
// target.
package directed

import (
	"fmt"
	"sort"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/mutation"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/serve"
	"github.com/repro/snowplow/internal/spec"
	"github.com/repro/snowplow/internal/trace"
)

// Config parameterizes a directed campaign.
type Config struct {
	Kernel *kernel.Kernel
	An     *cfa.Analysis
	Target kernel.BlockID
	Seed   uint64
	// Budget is the simulated execution cost limit.
	Budget int64
	// Server enables Snowplow-D (PMM argument localization); nil runs the
	// plain SyzDirect-style fuzzer. Any serve.Inferrer works — a dedicated
	// server or a tenant of a shared one, where its queries take their
	// round-robin turn with every other tenant's.
	Server serve.Inferrer
	// FallbackProb is the random-localization probability under PMM.
	FallbackProb float64
}

// Result is the outcome of a directed campaign.
type Result struct {
	Reached bool
	// Cost is the simulated time at which the target was first covered
	// (equals the consumed budget when not reached).
	Cost       int64
	Executions int64
}

// Runner drives one directed campaign.
type Runner struct {
	cfg  Config
	r    *rng.Rand
	exe  *exec.Executor
	mut  *mutation.Mutator
	gen  *prog.Generator
	corp *corpus.Corpus
	dist []int // distance of every block to the target

	targetCall *spec.Syscall // syscall whose handler contains the target
	cost       int64
	execs      int64

	// queried tracks corpus entries already sent to PMM: each entry gets
	// one localization burst; afterwards the SyzDirect heuristics take
	// over for it. Fresh entries (usually closer to the target) trigger
	// fresh queries.
	queried map[*corpus.Entry]bool
}

// New creates a directed runner.
func New(cfg Config) *Runner {
	if cfg.FallbackProb == 0 {
		cfg.FallbackProb = 0.1
	}
	r := &Runner{
		cfg:     cfg,
		r:       rng.New(cfg.Seed),
		exe:     exec.New(cfg.Kernel),
		mut:     mutation.NewMutator(cfg.Kernel.Target),
		gen:     prog.NewGenerator(cfg.Kernel.Target),
		corp:    corpus.New(),
		dist:    cfg.An.DistancesTo(cfg.Target),
		queried: map[*corpus.Entry]bool{},
	}
	if name := cfg.An.HandlerOf(cfg.Target); name != "" {
		r.targetCall = cfg.Kernel.Target.Lookup(name)
	}
	return r
}

// Run fuzzes until the target is covered or the budget is exhausted.
func (d *Runner) Run() (*Result, error) {
	// Seed: programs invoking the target's syscall (SyzDirect derives the
	// relevant syscalls from its static analysis; our analysis gives the
	// handler directly).
	for i := 0; i < 8; i++ {
		var p *prog.Prog
		if d.targetCall != nil {
			p = d.gen.GenerateWithCalls(d.r, d.targetCall)
		} else {
			p = d.gen.Generate(d.r, 3)
		}
		reached, err := d.execute(p, true)
		if err != nil {
			return nil, err
		}
		if reached {
			return &Result{Reached: true, Cost: d.cost, Executions: d.execs}, nil
		}
	}
	for d.cost < d.cfg.Budget {
		reached, err := d.step()
		if err != nil {
			return nil, err
		}
		if reached {
			return &Result{Reached: true, Cost: d.cost, Executions: d.execs}, nil
		}
	}
	return &Result{Reached: false, Cost: d.cost, Executions: d.execs}, nil
}

func (d *Runner) step() (bool, error) {
	entry := d.chooseSeed()
	if entry == nil {
		var p *prog.Prog
		if d.targetCall != nil {
			p = d.gen.GenerateWithCalls(d.r, d.targetCall)
		} else {
			p = d.gen.Generate(d.r, 3)
		}
		return d.execute(p, true)
	}
	// Snowplow-D: PMM argument localization toward the target. Each corpus
	// entry gets one localization burst; new entries (typically closer to
	// the target) trigger fresh queries.
	if d.cfg.Server != nil && !d.queried[entry] && !d.r.Chance(d.cfg.FallbackProb) {
		d.queried[entry] = true
		targets := d.queryTargets(entry)
		if len(targets) > 0 {
			pred, err := d.cfg.Server.Infer(serve.Query{
				Prog: entry.Prog, Traces: entry.Traces, Targets: targets,
			})
			if err == nil && len(pred.Slots) > 0 {
				slots := pred.Slots
				if len(slots) > 8 {
					slots = slots[:8]
				}
				for _, slot := range slots {
					for j := 0; j < 3; j++ {
						rec := d.mut.MutateArgs(d.r, entry.Prog, []prog.GlobalSlot{slot})
						reached, err := d.execute(rec.Prog, false)
						if reached || err != nil {
							return reached, err
						}
						if d.cost >= d.cfg.Budget {
							return false, nil
						}
					}
				}
				return false, nil
			}
		}
	}
	// SyzDirect-style mutation (also Snowplow-D's fallback).
	rec := d.mutateDirected(entry)
	return d.execute(rec.Prog, false)
}

// chooseSeed selects the corpus entry whose coverage is closest to the
// target (SyzDirect's distance-guided seed selection), with some random
// exploration.
func (d *Runner) chooseSeed() *corpus.Entry {
	entries := d.corp.Entries()
	if len(entries) == 0 {
		return nil
	}
	if d.r.Chance(0.2) {
		return entries[d.r.Intn(len(entries))]
	}
	best := entries[0]
	bestDist := cfa.MinDistance(d.dist, best.Blocks)
	for _, e := range entries[1:] {
		if dd := cfa.MinDistance(d.dist, e.Blocks); dd < bestDist {
			best, bestDist = e, dd
		}
	}
	return best
}

// mutateDirected biases mutation toward the target: argument mutation on
// the call handled by the target's handler, or insertion of calls that
// produce the resources that call consumes (SyzDirect's resource
// heuristics).
func (d *Runner) mutateDirected(entry *corpus.Entry) mutation.Record {
	p := entry.Prog
	// Find the call(s) whose handler contains the target.
	var relevant []int
	if d.targetCall != nil {
		for ci, call := range p.Calls {
			if call.Meta == d.targetCall {
				relevant = append(relevant, ci)
			}
		}
	}
	switch {
	case len(relevant) == 0 && d.targetCall != nil && d.r.Chance(0.6):
		// Insert the target call (with its resources) at the end.
		q := p.Clone()
		c := d.gen.GenerateCallAt(d.r, q, d.targetCall, len(q.Calls))
		q.InsertCall(len(q.Calls), c)
		return mutation.Record{Type: mutation.CallInsertion, Prog: q}
	case len(relevant) > 0 && d.r.Chance(0.8):
		// Argument mutation focused on a relevant call.
		ci := relevant[d.r.Intn(len(relevant))]
		slots := p.Calls[ci].Meta.Slots()
		if len(slots) > 0 {
			gs := prog.GlobalSlot{Call: ci, Slot: d.r.Intn(len(slots))}
			return d.mut.MutateArgs(d.r, p, []prog.GlobalSlot{gs})
		}
	}
	return d.mut.Mutate(d.r, p)
}

// queryTargets picks PMM query targets: the frontier blocks of the base's
// coverage nearest (by static distance) to the campaign target.
func (d *Runner) queryTargets(entry *corpus.Entry) []kernel.BlockID {
	alts := d.cfg.An.Frontier(entry.Blocks)
	type cand struct {
		b    kernel.BlockID
		dist int
	}
	var cands []cand
	seen := map[kernel.BlockID]bool{}
	for _, alt := range alts {
		if seen[alt.Entry] {
			continue
		}
		seen[alt.Entry] = true
		if dd := d.dist[alt.Entry]; dd < cfa.Unreached {
			cands = append(cands, cand{alt.Entry, dd})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].b < cands[j].b
	})
	n := 8
	if len(cands) < n {
		n = len(cands)
	}
	out := make([]kernel.BlockID, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].b
	}
	return out
}

// execute runs a program and reports whether the target was covered.
func (d *Runner) execute(p *prog.Prog, seedEntry bool) (bool, error) {
	res, err := d.exe.Run(p)
	if err != nil {
		return false, fmt.Errorf("directed: %w", err)
	}
	d.execs++
	d.cost += int64(res.Cost)
	blocks := trace.NewBlockSet(trace.BlocksOf(res))
	if blocks.Has(d.cfg.Target) {
		return true, nil
	}
	if res.Crash != nil {
		return false, nil
	}
	cover := trace.EdgesOf(res)
	if seedEntry {
		d.corp.Seed(p, cover, blocks, res.CallTraces)
	} else {
		d.corp.Add(p, cover, blocks, res.CallTraces)
	}
	return false, nil
}
