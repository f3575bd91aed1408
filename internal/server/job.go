package server

import (
	"context"
	"fmt"
	"time"

	"prescount/internal/core"
	"prescount/internal/ir"
	"prescount/internal/pool"
	"prescount/internal/portfolio"
	"prescount/internal/sim"
)

// job is one function's compile, the unit all three compile endpoints
// schedule: /v1/compile runs one, /v1/compile/module one per function and
// /v1/compile/batch one per unique entry. Once it has run, exactly one of
// res and err is set.
type job struct {
	f    *ir.Func
	opts core.Options
	// race runs the portfolio instead of opts.Method.
	race bool
	// simulate asks for a run of the allocated code, under the dual-issue
	// cycle model when vliw is set.
	simulate, vliw bool

	res    *core.Result
	winner string // the portfolio's winning method
	sim    *SimJSON
	err    *errorResponse
}

// run compiles the job and, when asked, simulates the result. Only a
// goroutine that holds an admission slot calls it.
func (j *job) run(ctx context.Context, m *metrics) {
	start := time.Now()
	var err error
	if j.race {
		var rr *portfolio.RaceResult
		if rr, err = portfolio.CompileFunc(ctx, j.f, j.opts); err == nil {
			j.res, j.winner = rr.Result, rr.Winner.String()
			m.countWin(j.winner)
		}
	} else {
		j.res, err = core.CompileContext(ctx, j.f, j.opts)
	}
	m.phase("compile").observe(time.Since(start))
	if err != nil {
		code := CodeCompile
		if isDeadline(err) {
			code = CodeDeadline
		}
		j.fail(m, code, err.Error())
		return
	}
	if !j.simulate {
		return
	}
	simStart := time.Now()
	sr, err := sim.Run(j.res.Func, sim.Options{File: j.opts.File, VLIW: j.vliw})
	m.phase("simulate").observe(time.Since(simStart))
	if err != nil {
		j.fail(m, CodeSimulate, err.Error())
		return
	}
	j.sim = &SimJSON{
		Steps:             sr.Steps,
		Cycles:            sr.Cycles,
		DynamicConflicts:  sr.DynamicConflicts,
		ConflictInstances: sr.ConflictInstances,
		MemChecksum:       fmt.Sprintf("%016x", sr.MemChecksum),
	}
}

// fail records the job's error under code and counts it as a deadline or
// a compile error.
func (j *job) fail(m *metrics, code, msg string) {
	j.res, j.err = nil, &errorResponse{Error: msg, Code: code}
	if code == CodeDeadline {
		m.deadlines.Add(1)
	} else {
		m.compileErrors.Add(1)
	}
}

// response renders the job's result under name. A batch entry that shares
// its sibling's compile may carry another symbol name; its MIR is printed
// under its own.
func (j *job) response(name string, emitMIR bool) FuncResponse {
	fr := FuncResponse{
		Func:   name,
		Report: reportJSON(j.res.Report),
		Alloc:  allocJSON(j.res.Alloc),
		Sim:    j.sim,
		Method: j.winner,
	}
	if emitMIR {
		fn := j.res.Func
		if fn.Name != name {
			fn = fn.Clone()
			fn.Name = name
		}
		fr.MIR = ir.Print(fn)
	}
	return fr
}

// runJobs runs a request's jobs on the slot admit granted plus every slot
// idle at this moment, taken without waiting, so a request queues at most
// once and every compile runs inside a slot. It releases them all when the
// jobs finish, before the caller renders and encodes its answer. A job the
// deadline stops before it starts fails with CodeDeadline.
func (s *Server) runJobs(ctx context.Context, jobs []*job) {
	held := 1
	for held < len(jobs) && s.takeIdle() {
		held++
	}
	defer func() {
		for ; held > 0; held-- {
			<-s.slots
		}
	}()
	// The callback never fails, so Run's only error is the context's, and
	// the loop below reports it on every job it kept from starting.
	_ = pool.Run(ctx, len(jobs), held, func(ctx context.Context, i int) error {
		jobs[i].run(ctx, s.metrics)
		return nil
	})
	for _, j := range jobs {
		if j.res == nil && j.err == nil {
			j.fail(s.metrics, CodeDeadline, "deadline expired before compile")
		}
	}
}
