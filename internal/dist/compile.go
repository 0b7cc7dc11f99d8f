package dist

import (
	"fmt"
	"sync"

	"twocs/internal/model"
	"twocs/internal/sim"
	"twocs/internal/telemetry"
	"twocs/internal/units"
)

// The grid studies re-simulate the same iteration-schedule *shape* —
// op IDs, dependencies, stream assignment — under hundreds of hardware
// scenarios: an evolution grid varies FLOPs and bandwidth, a robustness
// sweep varies faults, but none of them change the op graph. This file
// caches the compiled sim.Program per shape and refills only the
// durations per point, the schedule-level half of the engine's
// compile-once/re-time-many design (see internal/sim/program.go).

// CompiledIteration pairs the compiled simulator Program of one
// iteration-schedule shape with the pricing specs that refill its
// durations under any Timer of the same TP degree. Instances are
// immutable and safe for concurrent use; sweep workers share one.
type CompiledIteration struct {
	prog  *sim.Program
	specs []iterOpSpec
	// shape (Name-normalized model config) and tp reproduce the
	// optimizer-step pricing inputs at refill time.
	shape model.Config
	tp    int
}

// Refill prices every op of the compiled schedule under timer and
// returns the durations in op order — the duration-refill hook of the
// compile-once/re-time-many loop. The timer must have the TP degree the
// schedule was compiled for; its hardware (Calculator, cost models) and
// DP degree are free to differ.
func (c *CompiledIteration) Refill(timer *Timer) ([]units.Seconds, error) {
	if timer == nil {
		return nil, fmt.Errorf("dist: nil timer")
	}
	if timer.TP != c.tp {
		return nil, fmt.Errorf("dist: timer TP %d does not match compiled TP %d", timer.TP, c.tp)
	}
	dst := make([]units.Seconds, c.prog.NumOps())
	for i, s := range c.specs {
		var d units.Seconds
		var err error
		if s.optimizer {
			d, err = timer.Calc.OptimizerStep(c.shape.Params()/float64(c.tp), c.shape.DT, 6)
		} else {
			d, err = timer.Time(s.desc)
		}
		if err != nil {
			return nil, err
		}
		dst[i] = d
	}
	return dst, nil
}

// Run refills durations under timer and executes the compiled program,
// returning the same report and trace RunIteration produces.
func (c *CompiledIteration) Run(timer *Timer, cfg sim.Config) (*IterationReport, *sim.Trace, error) {
	durs, err := c.Refill(timer)
	if err != nil {
		return nil, nil, err
	}
	trace, err := c.prog.Run(durs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return reportFrom(trace), trace, nil
}

// iterKey identifies an iteration-schedule shape: the model config
// (Name normalized away), the TP degree (which scales every operator
// descriptor), whether DP collectives exist at all (their durations,
// like everything else, are refilled per timer), and the two
// shape-affecting schedule options. Cluster, hardware and the DP
// degree are deliberately absent: they price ops, they don't shape
// the graph.
type iterKey struct {
	shape      model.Config
	tp         int
	dpMulti    bool
	bucket     int
	includeOpt bool
}

func iterShape(c model.Config) model.Config {
	c.Name = ""
	return c
}

var iterCache sync.Map // iterKey -> *CompiledIteration

// CompileIteration returns the compiled program for the plan's
// iteration-schedule shape, building it on first use and serving every
// later call (any hardware, any DP degree, any study) from a
// process-wide cache. The plan is validated per call, so invalid plans
// never consult the cache.
func CompileIteration(p Plan, timer *Timer, opts ScheduleOptions) (*CompiledIteration, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if timer == nil {
		return nil, fmt.Errorf("dist: nil timer")
	}
	bucket := opts.DPBucketLayers
	if bucket < 1 || p.DP == 1 {
		bucket = 1
	}
	key := iterKey{
		shape:      iterShape(p.Model),
		tp:         p.TP,
		dpMulti:    p.DP > 1,
		bucket:     bucket,
		includeOpt: opts.IncludeOptimizer,
	}
	if c, ok := iterCache.Load(key); ok {
		telemetry.Active().Count("dist.programcache.hit", 1)
		return c.(*CompiledIteration), nil
	}
	telemetry.Active().Count("dist.programcache.miss", 1)
	ops, specs, err := buildIteration(p, timer, opts)
	if err != nil {
		return nil, err
	}
	prog, err := sim.Compile(ops)
	if err != nil {
		return nil, err
	}
	c := &CompiledIteration{prog: prog, specs: specs, shape: iterShape(p.Model), tp: p.TP}
	if prev, loaded := iterCache.LoadOrStore(key, c); loaded {
		// A racing builder won; share its copy so every caller sees one
		// instance per shape.
		return prev.(*CompiledIteration), nil
	}
	return c, nil
}
