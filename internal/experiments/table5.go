package experiments

import (
	"fmt"
	"io"
	"sort"

	"github.com/repro/snowplow/internal/directed"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/serve"
)

// DirectedScore summarizes repeated directed runs on one target.
type DirectedScore struct {
	Successes int
	Runs      int
	AvgCost   float64 // mean cost of successful runs (0 if none)
}

// TargetOutcome is one Table-5 row: a target code location with both
// systems' average time-to-reach and success rates.
type TargetOutcome struct {
	Name      string
	Block     kernel.BlockID
	Deep      bool
	SyzDirect DirectedScore
	SnowplowD DirectedScore
	// Speedup is SyzDirect's average cost over Snowplow-D's; -1 marks INF
	// (only Snowplow-D reached the target), 0 marks neither.
	Speedup float64
}

// Table5Result is the directed-fuzzing comparison (§5.4).
type Table5Result struct {
	Targets                 []TargetOutcome
	ReachedSyz, ReachedSnow int
	// SubtotalSpeedup aggregates cost over targets both systems reached
	// (paper: 8.5x).
	SubtotalSpeedup float64
	// ExtraTargets are reached only by Snowplow-D (paper: 2).
	ExtraTargets int
}

// directedTarget pairs a location with a label.
type directedTarget struct {
	name  string
	block kernel.BlockID
	deep  bool
}

// directedTargets assembles the Table-5 target set on kernel 6.8: shallow
// syscall-entry blocks (reached by merely issuing the right call) and deep
// argument-constrained blocks drawn from planted-bug chains, mirroring the
// easy/hard split the paper observes.
func directedTargets(h *Harness) []directedTarget {
	k := h.Kernel("6.8")
	var targets []directedTarget
	// Shallow: handler-entry-adjacent blocks of a few base syscalls.
	for _, name := range []string{"open", "socket", "mmap", "timer_create", "epoll_create1", "shmget"} {
		hd := k.Handler(name)
		targets = append(targets, directedTarget{
			name:  fmt.Sprintf("%s entry", name),
			block: hd.Entry,
		})
	}
	// Deep: the last chain block before each Table-4 planted crash (one
	// branch short of the bug), requiring the full argument chain.
	deepBugs := []struct{ variant, fn string }{
		{"ioctl$SCSI_IOCTL_SEND_COMMAND", "ata_pio_sector"},
		{"io_uring_enter", "native_tss_update_io_bitmap"},
		{"timer_settime", "__sanitizer_cov_trace_pc"},
		{"mmap", "expand_stack"},
		{"pwrite64", "ext4_iomap_begin"},
		{"open", "ext4_search_dir"},
	}
	for _, db := range deepBugs {
		if id, ok := deepestChainBranch(k, db.variant, db.fn); ok {
			targets = append(targets, directedTarget{
				name:  fmt.Sprintf("%s deep (%s)", db.variant, db.fn),
				block: id,
				deep:  true,
			})
		}
	}
	// Hardest tier: crash blocks of deep generated bugs — the full
	// multi-constraint conjunction must hold, which SyzDirect's random
	// argument localization often cannot assemble within budget (the
	// paper's NA rows).
	count := 0
	for i := range k.Blocks {
		b := &k.Blocks[i]
		if b.Kind != kernel.BlockCrash || b.Crash == nil {
			continue
		}
		if b.Crash.KnownSince != "" || b.Crash.Flaky {
			continue
		}
		switch b.Subsystem {
		case "fs", "mm", "net", "scsi", "time", "ipc", "io_uring", "core":
			continue // base subsystems host the named bugs above
		}
		if i%3 != 0 {
			continue // deterministic thinning
		}
		targets = append(targets, directedTarget{
			name:  fmt.Sprintf("crash %s (%s)", b.Subsystem, b.Fn),
			block: b.ID,
			deep:  true,
		})
		count++
		if count >= 6 {
			break
		}
	}
	return targets
}

// deepestChainBranch returns the innermost branch block of a planted bug
// chain: plantChain appends the crash block first and the chain branches
// outermost-last, so the first branch with the bug's function name is the
// one guarded by every other rung.
func deepestChainBranch(k *kernel.Kernel, variant, fn string) (kernel.BlockID, bool) {
	hd := k.Handler(variant)
	if hd == nil {
		return 0, false
	}
	for _, id := range hd.Blocks {
		b := k.Block(id)
		if b.Fn == fn && b.Kind == kernel.BlockBranch {
			return id, true
		}
	}
	return 0, false
}

// Table5 runs the directed-fuzzing experiment: SyzDirect vs Snowplow-D on
// each target, Repeats runs each.
func Table5(h *Harness) Table5Result {
	opts := h.Opts
	srv := h.Server("6.8")
	defer srv.Close()

	var res Table5Result
	var syzTotal, snowTotal float64
	for _, tgt := range directedTargets(h) {
		h.logf("table5: %s...\n", tgt.name)
		out := TargetOutcome{Name: tgt.name, Block: tgt.block, Deep: tgt.deep}
		out.SyzDirect = h.runDirected(tgt.block, nil, opts.Repeats)
		out.SnowplowD = h.runDirected(tgt.block, srv, opts.Repeats)
		switch {
		case out.SyzDirect.Successes > 0 && out.SnowplowD.Successes > 0:
			out.Speedup = out.SyzDirect.AvgCost / out.SnowplowD.AvgCost
			syzTotal += out.SyzDirect.AvgCost
			snowTotal += out.SnowplowD.AvgCost
		case out.SnowplowD.Successes > 0:
			out.Speedup = -1
		}
		if out.SyzDirect.Successes > 0 {
			res.ReachedSyz++
		}
		if out.SnowplowD.Successes > 0 {
			res.ReachedSnow++
			if out.SyzDirect.Successes == 0 {
				res.ExtraTargets++
			}
		}
		res.Targets = append(res.Targets, out)
	}
	if snowTotal > 0 {
		res.SubtotalSpeedup = syzTotal / snowTotal
	}
	sort.Slice(res.Targets, func(i, j int) bool {
		si, sj := res.Targets[i].Speedup, res.Targets[j].Speedup
		if (si < 0) != (sj < 0) {
			return si < 0 // INF rows first, like the paper
		}
		return si > sj
	})
	return res
}

// runDirected runs repeats directed campaigns on target: Snowplow-D with a
// server, SyzDirect with a nil one. srv is an interface so that the
// SyzDirect arm's nil reaches directed.Config.Server as a true nil, not as
// a typed-nil *serve.Server that the runner would query.
func (h *Harness) runDirected(target kernel.BlockID, srv serve.Inferrer, repeats int) DirectedScore {
	k := h.Kernel("6.8")
	an := h.Analysis("6.8")
	var score DirectedScore
	var total float64
	for rep := 0; rep < repeats; rep++ {
		r := directed.New(directed.Config{
			Kernel: k, An: an, Target: target,
			Seed:   h.Opts.Seed*1009 + uint64(rep)*333 + 7,
			Budget: h.Opts.DirectedBudget,
			Server: srv,
		})
		res, err := r.Run()
		if err != nil {
			panic(err)
		}
		score.Runs++
		if res.Reached {
			score.Successes++
			total += float64(res.Cost)
		}
	}
	if score.Successes > 0 {
		score.AvgCost = total / float64(score.Successes)
	}
	return score
}

// Render prints Table 5.
func (r Table5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== Table 5: directed fuzzing, time to reach target ==\n")
	fmt.Fprintf(w, "%-45s %16s %16s %9s\n", "Target location", "SyzDirect", "Snowplow-D", "Speedup")
	for _, t := range r.Targets {
		syz := scoreCell(t.SyzDirect)
		snow := scoreCell(t.SnowplowD)
		sp := "NA"
		switch {
		case t.Speedup < 0:
			sp = "INF"
		case t.Speedup > 0:
			sp = fmt.Sprintf("%.1f", t.Speedup)
		}
		fmt.Fprintf(w, "%-45s %16s %16s %9s\n", truncate(t.Name, 45), syz, snow, sp)
	}
	fmt.Fprintf(w, "targets reached: SyzDirect %d, Snowplow-D %d (+%d exclusive; paper: 19 vs 21, +2)\n",
		r.ReachedSyz, r.ReachedSnow, r.ExtraTargets)
	fmt.Fprintf(w, "subtotal speedup on co-reached targets: %.1fx (paper: 8.5x)\n", r.SubtotalSpeedup)
}

func scoreCell(s DirectedScore) string {
	if s.Successes == 0 {
		return fmt.Sprintf("NA (0/%d)", s.Runs)
	}
	return fmt.Sprintf("%.0f (%d/%d)", s.AvgCost, s.Successes, s.Runs)
}
