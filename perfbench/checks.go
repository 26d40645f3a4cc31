package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
)

// sameBits reports the first element at which two float32 slices differ
// bitwise, or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// compareParams checks two models' parameters bitwise.
func compareParams(what string, a, b nn.Module) error {
	pa, pb := a.Parameters(), b.Parameters()
	if len(pa) != len(pb) {
		return fmt.Errorf("%s: %d vs %d parameters", what, len(pa), len(pb))
	}
	for i := range pa {
		if at := sameBits(pa[i].Value.Data(), pb[i].Value.Data()); at >= 0 {
			return fmt.Errorf("%s: parameter %s differs at element %d", what, pa[i].Name, at)
		}
	}
	return nil
}

// checkReplicas checks that every rank holds bitwise the same
// parameters, gathering ZeRO-3 shards first.
func (c *cluster) checkReplicas() error {
	if err := c.materialize(); err != nil {
		return err
	}
	for _, rs := range c.ranks[1:] {
		if err := compareParams(fmt.Sprintf("rank %d vs rank 0", rs.rank), rs.model, c.ranks[0].model); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstDDP trains an untraced in-process DDP reference of the
// same seed for `steps` steps and checks that c's (ZeRO-3) parameters
// equal it bitwise: the sharded ring collectives reproduce the ring
// AllReduce's arithmetic exactly.
func (c *cluster) checkAgainstDDP(ds data.Dataset, steps int) error {
	ref := *c.w
	ref.Strategy, ref.TCP, ref.CkptEvery = DDP, false, 0
	rc, err := newCluster(&ref, c.seed, ds, nil, "")
	if err != nil {
		return fmt.Errorf("building DDP reference: %w", err)
	}
	defer rc.close()
	for i := 0; i < steps; i++ {
		if r := rc.runStep(i); r.err != nil {
			return fmt.Errorf("DDP reference: %w", r.err)
		}
	}
	if err := c.materialize(); err != nil {
		return err
	}
	return compareParams(c.w.Name+" vs DDP reference", c.ranks[0].model, rc.ranks[0].model)
}

// checkLossFell checks that the mean loss of the last few steps is
// below that of the first few.
func checkLossFell(losses []float64) error {
	const k = 10
	if len(losses) < 2*k {
		return fmt.Errorf("only %d steps ran; need %d to judge the loss", len(losses), 2*k)
	}
	mean := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	first, last := mean(losses[:k]), mean(losses[len(losses)-k:])
	if !(last < first) {
		return fmt.Errorf("loss did not fall: first %d steps %.4f, last %d steps %.4f", k, first, k, last)
	}
	return nil
}

// restoreCheck saves the live state of every rank after `steps` steps,
// waits for the commit, loads the newest checkpoint into a fresh model
// and optimizer, and checks that it equals rank 0's live state
// bitwise. It returns the load-and-apply time and the blob size.
func (c *cluster) restoreCheck(steps int64) (time.Duration, int, error) {
	err := c.onRanks(func(rs *rankState) error {
		snap, err := ckpt.Capture(rs.model, rs.opt, ckpt.Meta{Step: steps, World: world, Seed: c.seed})
		if err != nil {
			return err
		}
		if err := rs.writer.Submit(snap, rs.rank, world, nil); err != nil {
			return err
		}
		return rs.writer.Sync()
	})
	if err != nil {
		return 0, 0, fmt.Errorf("final checkpoint: %w", err)
	}
	model := c.w.Model(modelSeed(c.seed) + 1)
	opt := optim.NewSGD(model.Parameters(), c.w.LR)
	opt.Momentum = c.w.Momentum
	start := time.Now()
	snap, _, err := ckpt.Load(c.ckptDir)
	if err != nil {
		return 0, 0, err
	}
	meta, err := snap.Apply(model, opt)
	took := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if meta.Step != steps {
		return 0, 0, fmt.Errorf("restored step %d, want %d", meta.Step, steps)
	}
	live := c.ranks[0]
	if err := compareParams("restored vs live", model, live.model); err != nil {
		return 0, 0, err
	}
	if at := sameBits(opt.FlatState(), live.opt.FlatState()); at >= 0 {
		return 0, 0, fmt.Errorf("restored vs live: optimizer state differs at element %d", at)
	}
	return took, len(snap.Bytes()), nil
}
