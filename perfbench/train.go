package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/reduce"
	"repro/internal/store"
	"repro/internal/transport"
)

// rankState is one rank of a cluster: its model replica, wrapper,
// optimizer and data shard.
type rankState struct {
	rank   int
	model  nn.Module
	ddp    *ddp.DDP
	fsdp   *fsdp.FSDP
	opt    *optim.SGD // nil under ZeRO-3, whose step is fused into Backward
	pg     comm.ProcessGroup
	loader *data.Loader
	epoch  int64
	writer *ckpt.AsyncWriter
	obs    *rankObs // nil when untraced
}

// cluster is world ranks of one workload, built the way a user of the
// repository builds them: meshes, process groups, wrapper, optimizer.
type cluster struct {
	w       *Workload
	seed    int64
	tr      *Tracer // nil when untraced
	ranks   []*rankState
	st      *store.InMem
	ckptDir string
	setup   time.Duration // mesh, group, wrapper and optimizer construction
}

// modelSeed derives the model-initialisation seed from the workload
// seed; the data uses the workload seed itself.
func modelSeed(seed int64) int64 { return seed*7919 + 17 }

// newCluster builds a cluster. Models and loaders are made first and
// are not part of the measured set-up time. tr, when non-nil, wraps
// every mesh and group in the observation wrappers.
func newCluster(w *Workload, seed int64, ds data.Dataset, tr *Tracer, ckptDir string) (*cluster, error) {
	c := &cluster{w: w, seed: seed, tr: tr, ckptDir: ckptDir, ranks: make([]*rankState, world)}
	for r := range c.ranks {
		sampler, err := data.NewDistributedSampler(ds.Len(), r, world)
		if err != nil {
			return nil, err
		}
		loader, err := data.NewLoader(ds, sampler, w.Batch)
		if err != nil {
			return nil, err
		}
		c.ranks[r] = &rankState{rank: r, model: w.Model(modelSeed(seed)), loader: loader}
	}

	start := time.Now()
	if w.TCP || w.CkptEvery > 0 {
		c.st = store.NewInMem(30 * time.Second)
	}
	meshes, err := c.buildMeshes()
	if err != nil {
		c.close()
		return nil, err
	}
	for r, rs := range c.ranks {
		m := meshes[r]
		if tr != nil {
			rs.obs = newRankObs(r, tr, w.frameHeader())
			m = &obsMesh{Mesh: m, o: rs.obs}
		}
		rs.pg = comm.NewGroup(m, comm.Options{Algorithm: comm.Ring})
		if tr != nil {
			rs.pg = &obsGroup{ShardedGroup: rs.pg.(comm.ShardedGroup), o: rs.obs}
		}
	}
	err = c.onRanks(func(rs *rankState) error { return c.wrap(rs) })
	c.setup = time.Since(start)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) buildMeshes() ([]transport.Mesh, error) {
	if !c.w.TCP {
		return transport.NewInProcMeshes(world), nil
	}
	meshes := make([]transport.Mesh, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := range meshes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			meshes[r], errs[r] = transport.NewTCPMesh(r, world, c.st, "perfbench")
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
		return nil, fmt.Errorf("building TCP mesh: %w", err)
	}
	return meshes, nil
}

// wrap constructs one rank's data-parallel wrapper (including its
// initial broadcast and bucket assignment), optimizer and checkpoint
// writer.
func (c *cluster) wrap(rs *rankState) error {
	w := c.w
	switch w.Strategy {
	case DDP:
		d, err := ddp.New(rs.model, rs.pg, ddp.Options{BucketCapBytes: w.CapBytes})
		if err != nil {
			return err
		}
		rs.ddp = d
		rs.opt = optim.NewSGD(d.Parameters(), w.LR)
		rs.opt.Momentum = w.Momentum
	case ZeRO3:
		f, err := fsdp.New(rs.model, rs.pg, fsdp.Options{
			Strategy: fsdp.ZeRO3, BucketCapBytes: w.CapBytes, LR: w.LR, Momentum: w.Momentum,
		})
		if err != nil {
			return err
		}
		rs.fsdp = f
	}
	if w.CkptEvery > 0 {
		rs.writer = ckpt.NewAsyncWriter(&ckpt.Writer{
			Dir:       c.ckptDir,
			Committer: &ckpt.StoreCommitter{St: c.st, Poll: time.Millisecond},
		})
	}
	return nil
}

// assignment is rank 0's bucket assignment.
func (c *cluster) assignment() *reduce.Assignment {
	if rs := c.ranks[0]; rs.ddp != nil {
		return rs.ddp.Assignment()
	}
	return c.ranks[0].fsdp.Assignment()
}

// close stops every writer and group and the store, waiting for their
// goroutines to end.
func (c *cluster) close() error {
	var errs []error
	for _, rs := range c.ranks {
		if rs == nil {
			continue
		}
		if rs.writer != nil {
			errs = append(errs, rs.writer.Close())
		}
		if rs.pg != nil {
			errs = append(errs, rs.pg.Close())
		}
	}
	if c.st != nil {
		errs = append(errs, c.st.Close())
	}
	return errors.Join(errs...)
}

// onRanks runs fn on every rank concurrently and joins the errors. A
// panic in the program (DDP and fsdp panic on a failed buffer
// broadcast) is reported as that rank's error.
func (c *cluster) onRanks(fn func(*rankState) error) error {
	errs := make([]error, len(c.ranks))
	var wg sync.WaitGroup
	for i, rs := range c.ranks {
		wg.Add(1)
		go func(i int, rs *rankState) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("rank %d panicked: %v", rs.rank, p)
				}
			}()
			errs[i] = fn(rs)
		}(i, rs)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// stepResult is one closed-loop step: its wall time from the first
// rank's start to the last rank's finish, and the ranks' mean loss.
type stepResult struct {
	wall time.Duration
	loss float64
	err  error
}

// runStep runs training step i on every rank and returns once all have
// finished: the closed loop.
func (c *cluster) runStep(i int) stepResult {
	var starts, ends [world]time.Time
	var losses [world]float32
	err := c.onRanks(func(rs *rankState) error {
		starts[rs.rank] = time.Now()
		defer func() { ends[rs.rank] = time.Now() }()
		loss, err := rs.step(c, i)
		losses[rs.rank] = loss
		return err
	})
	first, last := starts[0], ends[0]
	var sum float64
	for r := 0; r < world; r++ {
		if starts[r].Before(first) {
			first = starts[r]
		}
		if ends[r].After(last) {
			last = ends[r]
		}
		sum += float64(losses[r])
		if err == nil && !isFinite(losses[r]) {
			err = fmt.Errorf("step %d: rank %d loss is %v", i, r, losses[r])
		}
	}
	return stepResult{wall: last.Sub(first), loss: sum / world, err: err}
}

func isFinite(v float32) bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }

// phase runs fn as one phase of a step, inside a span when traced.
func (rs *rankState) phase(stepSpan Span, name string, fn func() error) error {
	if rs.obs == nil {
		return fn()
	}
	s := rs.obs.tr.open(rs.rank, stepSpan.Step, stepSpan.ID, name)
	rs.obs.phase.Store(s.ID)
	err := fn()
	rs.obs.tr.close(s)
	rs.obs.phase.Store(stepSpan.ID)
	return err
}

// step runs one training step on this rank: next batch, forward and
// loss, backward (with the wrapper's gradient reduction), optimizer,
// and a checkpoint when one is due.
func (rs *rankState) step(c *cluster, i int) (float32, error) {
	var root Span
	if rs.obs != nil {
		root = rs.obs.tr.open(rs.rank, i, 0, "step")
		rs.obs.step.Store(int64(i))
		rs.obs.stepSpan.Store(root.ID)
		rs.obs.phase.Store(root.ID)
		defer rs.obs.tr.close(root)
	}
	prefix := "ddp"
	if rs.fsdp != nil {
		prefix = "fsdp"
	}
	var x *autograd.Variable
	var labels []int
	var loss *autograd.Variable
	err := rs.phase(root, "data.next", func() error {
		xt, l, ok := rs.loader.Next()
		if !ok {
			rs.epoch++
			rs.loader.Reset(rs.epoch)
			if xt, l, ok = rs.loader.Next(); !ok {
				return errors.New("data loader yields no batch")
			}
		}
		x, labels = autograd.Constant(xt), l
		return nil
	})
	if err != nil {
		return 0, err
	}
	rs.phase(root, prefix+".forward", func() error {
		var out *autograd.Variable
		if rs.ddp != nil {
			out = rs.ddp.Forward(x)
		} else {
			out = rs.fsdp.Forward(x)
		}
		loss = autograd.CrossEntropyLoss(out, labels)
		return nil
	})
	err = rs.phase(root, prefix+".backward", func() error {
		if rs.ddp != nil {
			return rs.ddp.Backward(loss)
		}
		return rs.fsdp.Backward(loss)
	})
	if err != nil {
		return 0, err
	}
	if rs.opt != nil {
		rs.phase(root, "optim.step", func() error { rs.opt.Step(); return nil })
		rs.phase(root, "optim.zero_grad", func() error { rs.opt.ZeroGrad(); return nil })
	}
	if c.w.CkptEvery > 0 && (i+1)%c.w.CkptEvery == 0 {
		if err := rs.checkpoint(c, root, int64(i+1)); err != nil {
			return 0, err
		}
	}
	return loss.Value.Item(), nil
}

// checkpoint captures this rank's state after `steps` steps and hands
// it to the asynchronous writer.
func (rs *rankState) checkpoint(c *cluster, root Span, steps int64) error {
	var snap *ckpt.Snapshot
	err := rs.phase(root, "ckpt.capture", func() error {
		var err error
		snap, err = ckpt.Capture(rs.model, rs.opt, ckpt.Meta{Step: steps, World: world, Seed: c.seed})
		return err
	})
	if err != nil {
		return err
	}
	return rs.phase(root, "ckpt.submit", func() error {
		return rs.writer.Submit(snap, rs.rank, world, nil)
	})
}

// materialize gathers ZeRO-3 parameters into every rank's model (a
// collective); a no-op for DDP.
func (c *cluster) materialize() error {
	if c.w.Strategy != ZeRO3 {
		return nil
	}
	return c.onRanks(func(rs *rankState) error { return rs.fsdp.Materialize() })
}

// fsdpStats is rank 0's fsdp accounting (zero for DDP).
func (c *cluster) fsdpStats() fsdp.Stats {
	if f := c.ranks[0].fsdp; f != nil {
		return f.Stats()
	}
	return fsdp.Stats{}
}
