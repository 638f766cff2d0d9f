package engine

import (
	"fmt"

	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// SandwichHashJoin is the sandwich operator of the paper's reference [3]
// applied to a hash join: both inputs arrive as group streams aligned on a
// shared co-clustering dimension (ascending group identifiers, group-pure
// batches), so the join degenerates into a sequence of per-group hash joins.
// Only one group of the build side is materialized at a time — the paper's
// "faster execution times and significantly reduced memory while processing
// the same amount of data".
//
// The group identifier must be implied by the join key (both sides reach
// the shared dimension through the equated foreign key), which is exactly
// the condition the BDCC planner establishes before placing this operator;
// rows can then never match across different groups.
//
// Serially the operator streams: one group cursor aligns the two inputs, the
// join kernel builds the current group's table and fills the operator's one
// reused output batch per probe batch, returned at BatchSize and at every
// probe-batch end. With a scheduler handle (or a backend set) injected, the
// join pipelines across group boundaries instead: a feeder goroutine drives
// the same group cursor and hands each aligned group — cloned probe and build
// batches — to a task on the query's shared worker pool (or to a backend)
// that runs Fragment.Run, the same kernel into fresh batches with the same
// cuts, with the exchange window bounding the cross-group lookahead. Groups
// merge in stream order, so both forms return identical batch sequences;
// pipelined peak memory is bounded by the lookahead window's groups instead
// of a single group.
type SandwichHashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []string
	Type                JoinType
	Residual            expr.Expr
	// ProbeShift and BuildShift align streams whose group identifiers carry
	// extra minor bits: two rows are in the same sandwich group when
	// probeGID>>ProbeShift == buildGID>>BuildShift. A pipeline clustered at
	// finer granularity than the shared dimension's common bits simply
	// shifts the surplus away.
	ProbeShift uint
	BuildShift uint
	// Sched is the planner-injected handle of the query's shared worker
	// pool; nil means the serial one-group-at-a-time execution (unless a
	// backend set is injected below).
	Sched *Sched
	// Backends and Route shard the aligned group stream across a backend
	// set: each group unit is shipped to Backends[Route(gid, bytes)] instead
	// of the local pool (the route records the unit's batch bytes as the
	// backend's load). The exchange merges returned batches in group order,
	// so results stay byte-identical across shard counts and placements. A
	// non-empty backend set activates the group pipeline even when Sched is
	// nil (local serial execution, remote group joins). Both are
	// planner-injected.
	Backends []Backend
	Route    func(gid uint64, bytes int64) int

	schema expr.Schema
	ctx    *Context
	frag   *Fragment

	// Serial path: the kernel over the current group's build side, the
	// reused output batch, and the probe batch the kernel is positioned in
	// (nil: fetch the next one).
	probe    *joinProbe
	memBytes int64 // bytes charged to ctx.Mem for the current group's build side
	out      *vector.Batch
	cur      *vector.Batch

	// Group cursor, shared by the serial path and the feeder: the build
	// lookahead and the aligned group of the last probe batch pulled.
	rb     *vector.Batch // buffered copy of the lookahead batch
	rbOK   bool
	rEOF   bool
	curGID uint64
	haveG  bool

	ex *exchange // parallel group pipeline, nil on the serial path
}

// Schema implements Operator.
func (j *SandwichHashJoin) Schema() expr.Schema { return j.schema }

// Open implements Operator.
func (j *SandwichHashJoin) Open(ctx *Context) error {
	j.ctx = ctx
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	ls, rs := j.Left.Schema(), j.Right.Schema()
	// The fragment is the join's frozen group-join configuration — the plan
	// piece a backend set ships to remote workers at query setup. The serial
	// path's kernel is made from the same prepared fragment, so both forms
	// execute one configuration.
	j.frag = &Fragment{
		Probe: ls, Build: rs,
		ProbeKeys: j.LeftKeys, BuildKeys: j.RightKeys,
		Type: j.Type, Residual: j.Residual,
	}
	if ctx != nil {
		j.frag.Mem = ctx.Mem
	}
	if err := j.frag.Prepare(); err != nil {
		return err
	}
	j.schema = j.frag.OutSchema()
	j.probe = j.frag.newProbe(NewBuffer(rs), newPartJoinTable(1, j.frag.keyed))
	j.rb = vector.NewBatch(rs.Kinds())
	j.out = vector.NewBatch(j.schema.Kinds())
	return nil
}

// fetchRight loads the next right batch into the lookahead copy.
func (j *SandwichHashJoin) fetchRight() error {
	for {
		b, err := j.Right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			j.rEOF = true
			j.rbOK = false
			return nil
		}
		if b.Len() == 0 {
			continue
		}
		if !b.Grouped {
			return fmt.Errorf("engine: sandwich join build input is not a group stream")
		}
		j.rb.Reset()
		j.rb.AppendBatch(b)
		j.rb.GroupID = b.GroupID
		j.rb.Grouped = true
		j.rbOK = true
		return nil
	}
}

// nextProbe is the probe half of the group cursor: it returns the next
// non-empty probe batch, leaves its aligned group identifier in curGID, and
// reports whether that group differs from the previous batch's. The stream
// must be grouped and ascending. A nil batch means end of stream.
func (j *SandwichHashJoin) nextProbe() (b *vector.Batch, fresh bool, err error) {
	for {
		b, err = j.Left.Next()
		if err != nil || b == nil {
			return nil, false, err
		}
		if b.Len() > 0 {
			break
		}
	}
	if !b.Grouped {
		return nil, false, fmt.Errorf("engine: sandwich join probe input is not a group stream")
	}
	gid := b.GroupID >> j.ProbeShift
	if j.haveG && gid < j.curGID {
		return nil, false, fmt.Errorf("engine: sandwich join probe groups not ascending (%d after %d)", gid, j.curGID)
	}
	fresh = !j.haveG || gid != j.curGID
	j.haveG, j.curGID = true, gid
	return b, fresh, nil
}

// eachBuildBatch is the build half of the group cursor: it discards build
// groups below gid, passes every batch of group gid (possibly none) to fn,
// and stops at the first batch above gid, which stays in the lookahead. fn
// must not retain the batch.
func (j *SandwichHashJoin) eachBuildBatch(gid uint64, fn func(*vector.Batch)) error {
	for {
		if !j.rbOK {
			if j.rEOF {
				return nil
			}
			if err := j.fetchRight(); err != nil {
				return err
			}
			continue
		}
		switch g := j.rb.GroupID >> j.BuildShift; {
		case g > gid:
			return nil
		case g == gid:
			fn(j.rb)
		}
		j.rbOK = false
	}
}

// buildGroup materializes the right group gid (if present) into the hash
// table, replacing the previous group.
func (j *SandwichHashJoin) buildGroup(gid uint64) error {
	j.ctx.Mem.Shrink(j.memBytes)
	j.memBytes = 0
	p := j.probe
	p.buf.Reset()
	p.table.Reset()
	if err := j.eachBuildBatch(gid, p.insertBatch); err != nil {
		return err
	}
	j.memBytes = p.buf.Bytes() + p.table.Bytes()
	j.ctx.Mem.Grow(j.memBytes)
	return nil
}

// startParallelGroups starts the cross-group pipeline: a feeder goroutine
// drives the group cursor (so it discards build groups without probe rows and
// errors on non-grouped or descending input exactly like the serial path) and
// hands each aligned group — a self-contained GroupUnit of cloned batches —
// either to a group-join task on the local pool or, when a backend set is
// injected, to the backend its group hash routes to. The exchange window is
// the bounded lookahead in both forms.
func (j *SandwichHashJoin) startParallelGroups() {
	// Lookahead is deliberately tighter than the scan/probe window: each
	// in-flight group holds cloned probe and build batches plus a private
	// hash table, so the window directly scales peak memory. Sharded, the
	// window covers the backend set's total parallelism.
	look := 0
	if len(j.Backends) > 0 {
		for _, b := range j.Backends {
			look += b.Workers()
		}
	} else {
		look = j.Sched.Workers()
	}
	j.ex = newExchange(j.ctx.Mem, j.Sched, look+1)
	e := j.ex
	e.wg.Add(1)
	go func() { // feeder: the only puller of both children
		defer e.wg.Done()
		var next *GroupUnit // the following group, holding its first probe batch
		eof := false
		for {
			job, ok := e.claim()
			if !ok {
				return
			}
			// Gather the probe group: every batch up to the first one of the
			// following group, cloned off the child's reuse cycle.
			grp := next
			next = nil
			for next == nil && !eof {
				b, fresh, err := j.nextProbe()
				switch {
				case err != nil:
					e.setErr(err)
					return
				case b == nil:
					eof = true
				case grp == nil:
					grp = &GroupUnit{GID: j.curGID, Probe: []*vector.Batch{b.Clone()}}
				case fresh:
					next = &GroupUnit{GID: j.curGID, Probe: []*vector.Batch{b.Clone()}}
				default:
					grp.Probe = append(grp.Probe, b.Clone())
				}
			}
			if grp == nil {
				e.seal(job)
				return
			}
			if err := j.eachBuildBatch(grp.GID, func(b *vector.Batch) {
				grp.Build = append(grp.Build, b.Clone())
			}); err != nil {
				e.setErr(err)
				return
			}
			grpBytes := grp.Bytes()
			j.ctx.Mem.Grow(grpBytes)
			if len(j.Backends) > 0 {
				// Sharded form: ship the unit to the backend the route
				// places it on; the backend posts result
				// batches back and the exchange merges them under this
				// job's index, so delivery order — and therefore the
				// result — is independent of which backend ran the group.
				bk := j.Backends[j.Route(grp.GID, grpBytes)]
				e.beginJob()
				bk.RunGroup(grp, j.frag,
					func(b *vector.Batch) { e.post(job, b) },
					func(err error) {
						j.ctx.Mem.Shrink(grpBytes)
						e.finish(job, err)
					})
				continue
			}
			e.submitJob(job, func(_ int, emit func(*vector.Batch)) error {
				var err error
				if !e.isClosed() {
					err = j.frag.Run(grp, func(b *vector.Batch) { emit(b.Clone()) })
				}
				j.ctx.Mem.Shrink(grpBytes)
				return err
			})
		}
	}()
}

// Next implements Operator. Output batches never exceed BatchSize rows — the
// kernel stops mid-probe-row when a match list would overflow the batch and
// resumes there on the following call — and stay group-pure (each derives
// from a single probe batch).
func (j *SandwichHashJoin) Next() (*vector.Batch, error) {
	if j.Sched != nil || len(j.Backends) > 0 {
		if j.ex == nil {
			j.startParallelGroups()
		}
		return j.ex.nextBatch()
	}
	for {
		if j.cur == nil {
			b, fresh, err := j.nextProbe()
			if err != nil || b == nil {
				return nil, err
			}
			if fresh {
				if err := j.buildGroup(j.curGID); err != nil {
					return nil, err
				}
			}
			j.cur = b
			j.probe.begin(b)
		}
		j.out.Reset()
		j.out.Grouped, j.out.GroupID = true, j.cur.GroupID
		if j.probe.fill(j.out) {
			j.cur = nil
		}
		if j.out.Len() > 0 {
			return j.out, nil
		}
	}
}

// Close implements Operator.
func (j *SandwichHashJoin) Close() error {
	if j.ex != nil {
		j.ex.close()
		j.ex = nil
	}
	j.ctx.Mem.Shrink(j.memBytes)
	j.memBytes = 0
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
