package sam

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// ---- application commands ----

func (p *Proc) cmdCreateValue(c *cmd) {
	o := p.obj(c.name)
	if o.isMain && o.created && !o.frozen {
		// Idempotent re-create during a recovery replay: the step is
		// deterministic, so the contents match what was restored or
		// already recreated; publishing again is a no-op.
		p.reply(c, nil, nil)
		return
	}
	if o.usable() && !o.isMain {
		p.reply(c, nil, fmt.Errorf("value %v already exists (cached from rank %d)", c.name, o.ownerRank))
		return
	}
	o.kind = ft.KindValue
	o.data = c.obj
	o.state = stPresent
	o.isMain = true
	o.created = true
	o.frozen = false
	o.nonrepro = p.taint.Tainted()
	o.dirty = true
	o.dirtySeq++
	o.accessesDeclared = c.accesses
	p.touch(o)

	// Register with the home so queued requesters find us.
	if h := p.home(c.name); h != p.cfg.Rank {
		p.send(h, &wire{Kind: kValReg, Name: uint64(c.name)})
	} else {
		p.registerLocalOwner(c.name, ft.KindValue)
	}

	p.serveLocalWaiters(o)
	p.serveRemoteWaiters(o)
	p.reply(c, nil, nil)
}

func (p *Proc) cmdUseValue(c *cmd) {
	p.st.SharedAccesses.Add(1)
	o := p.obj(c.name)
	p.touch(o)
	if o.usable() {
		p.grantUse(o)
		p.reply(c, o.data, nil)
		return
	}
	p.st.Misses.Add(1)
	p.ensureFetch(o)
	o.waiters = append(o.waiters, c)
	p.park(c)
}

// grantUse records one access on a locally available value.
func (p *Proc) grantUse(o *object) {
	o.pins++
	if o.isMain {
		o.accessesDone++
		p.checkExhausted(o)
	} else {
		o.unreportedUses++
	}
}

func (p *Proc) cmdDoneValue(c *cmd) {
	o := p.objs[c.name]
	if o == nil || o.pins <= 0 {
		p.reply(c, nil, fmt.Errorf("DoneValue(%v) without UseValue", c.name))
		return
	}
	o.pins--
	if o.pins == 0 && o.freeable {
		if !p.ftEnabled() {
			delete(p.objs, c.name)
		} else {
			p.retryFrees()
		}
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdFreeValue(c *cmd) {
	o := p.objs[c.name]
	if o == nil || !o.isMain {
		p.reply(c, nil, fmt.Errorf("FreeValue(%v): not the owner", c.name))
		return
	}
	if !o.freeable {
		p.markFreeable(o)
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdRenameValue(c *cmd) {
	o := p.objs[c.name]
	if o == nil || !o.isMain || !o.created {
		p.reply(c, nil, fmt.Errorf("RenameValue(%v): not the owner of a created value", c.name))
		return
	}
	// Renaming is replay-safe, so it does not taint: the frozen old entry
	// is retained until this process checkpoints past the rename (§4.3's
	// free rule), so a replayed RenameValue finds it freeable and returns
	// the identical contents; once the entry can be freed, no replay can
	// reach the rename again. Tainting here would also deadlock the
	// producer-consumer cycle rename exists for: the producer parks on
	// the consumers' uses while the consumers' fetches of a tainted value
	// would wait for the producer's next boundary.
	if o.renameWaiter != nil {
		p.reply(c, nil, fmt.Errorf("RenameValue(%v): rename already in progress", c.name))
		return
	}
	if o.freeable {
		p.completeRename(o, c)
		return
	}
	o.renameWaiter = c
	p.park(c)
}

// completeRename hands the application a private copy of the exhausted
// value's contents to update and publish under the new name. The old
// entry is frozen: it keeps the final contents for recovery until the
// lazy-free protocol reclaims it.
func (p *Proc) completeRename(o *object, c *cmd) {
	cp, err := codec.DeepCopy(o.data)
	if err != nil {
		p.reply(c, nil, fmt.Errorf("rename %v: %w", o.name, err))
		return
	}
	o.frozen = true
	if p.appParked == c {
		p.appParked = nil
	}
	p.reply(c, cp, nil)
}

func (p *Proc) cmdPrefetch(c *cmd) {
	o := p.obj(c.name)
	if !o.usable() {
		p.ensureFetch(o)
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdPush(c *cmd) {
	o := p.objs[c.name]
	if o == nil || !o.isMain || !o.created {
		p.reply(c, nil, fmt.Errorf("Push(%v): not the owner of a created value", c.name))
		return
	}
	if c.rank == p.cfg.Rank {
		p.reply(c, nil, nil)
		return
	}
	if p.unstable(o) {
		p.addTrigger(trigger{kind: kPush, name: c.name, target: c.rank})
	} else {
		p.sendValueData(o, c.rank, kPush, false, 0)
	}
	p.reply(c, nil, nil)
}

// ---- helpers ----

// unstable reports whether sending this object requires a checkpoint
// first: its contents are nonreproducible and not yet covered by a
// committed checkpoint (§4.1).
func (p *Proc) unstable(o *object) bool {
	return p.ftEnabled() && o.nonrepro && o.dirty
}

// ensureFetch issues the fetch request for an absent value exactly once.
func (p *Proc) ensureFetch(o *object) {
	if o.fetchOutstanding || o.usable() {
		return
	}
	o.fetchOutstanding = true
	o.reqKind = kValReq
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamFetch, Name: uint64(o.name), Dst: int64(p.home(o.name))})
	}
	h := p.home(o.name)
	if h == p.cfg.Rank {
		p.localValReq(o.name, p.cfg.Rank)
		return
	}
	p.send(h, &wire{Kind: kValReq, Name: uint64(o.name)})
}

// localValReq handles a value request whose home is this process.
func (p *Proc) localValReq(name Name, requester int) {
	d := p.dirEnt(name)
	if !d.known {
		d.enqueueFetch(requester)
		return
	}
	if d.owner == p.cfg.Rank {
		p.serveValueFetch(name, requester)
		return
	}
	p.send(d.owner, &wire{Kind: kValReqFwd, Name: uint64(name), Target: requester})
}

// serveValueFetch serves a fetch request at the owner.
func (p *Proc) serveValueFetch(name Name, requester int) {
	o := p.obj(name)
	if requester == p.cfg.Rank {
		return // degenerate loopback; local waiters are served on create
	}
	if !o.created || !(o.state == stPresent) {
		// Not created yet (or mid-recovery); remember the requester.
		for _, r := range o.remoteWaiters {
			if r == requester {
				return
			}
		}
		o.remoteWaiters = append(o.remoteWaiters, requester)
		return
	}
	if p.unstable(o) {
		p.addTrigger(trigger{kind: kValData, name: name, target: requester})
		return
	}
	p.sendValueData(o, requester, kValData, false, 0)
}

// sendValueData transmits a value's contents to a rank. Values are
// immutable once created, so after the first pack every further fetch
// reply reuses the snapshot-cached frame.
func (p *Proc) sendValueData(o *object, rank int, kind int, inactive bool, seq int64) {
	body := p.packObject(o)
	p.st.ObjectSends.Add(1)
	if inactive {
		p.st.CkptCausingSends.Add(1)
	}
	p.send(rank, &wire{
		Kind: kind, Name: uint64(o.name), Body: body,
		Inactive: inactive, Seq: seq, Target: rank,
	})
}

// serveLocalWaiters wakes application commands parked on this object.
func (p *Proc) serveLocalWaiters(o *object) {
	if !o.usable() {
		return
	}
	waiters := o.waiters
	o.waiters = nil
	for _, c := range waiters {
		if c.op == opUpdateAccum && !o.isMain {
			// A cached version (checkpoint copy or snapshot) cannot grant
			// the update lock; keep waiting for the migrated main copy.
			o.waiters = append(o.waiters, c)
			continue
		}
		if p.appParked == c {
			p.appParked = nil
		}
		switch c.op {
		case opUseValue:
			p.grantUse(o)
			p.reply(c, o.data, nil)
		case opUpdateAccum:
			p.grantAccumLock(o, c)
		case opChaoticRead:
			p.serveChaoticLocal(o, c)
		default:
			p.reply(c, nil, fmt.Errorf("unexpected waiter op %d on %v", c.op, o.name))
		}
	}
}

// serveRemoteWaiters serves fetch requests that arrived before creation.
func (p *Proc) serveRemoteWaiters(o *object) {
	if !o.created || o.state != stPresent {
		return
	}
	rw := o.remoteWaiters
	o.remoteWaiters = nil
	for _, r := range rw {
		p.serveValueFetch(o.name, r)
	}
}

// checkExhausted marks a value freeable once all declared accesses have
// occurred.
func (p *Proc) checkExhausted(o *object) {
	if o.isMain && !o.freeable && o.accessesDeclared > 0 && o.accessesDone >= o.accessesDeclared {
		p.markFreeable(o)
	}
}

// noteUse moves an object's unreported local uses into the batched
// per-owner notice map.
func (p *Proc) noteUse(o *object) {
	if o.unreportedUses == 0 || o.isMain || o.ownerRank < 0 {
		return
	}
	m := p.useNotices[o.ownerRank]
	if m == nil {
		m = make(map[Name]int64)
		p.useNotices[o.ownerRank] = m
	}
	m[o.name] += o.unreportedUses
	o.unreportedUses = 0
}

// flushUseNotices sends batched use reports to owners (one message per
// owner per boundary), keeping the hot access path free of communication.
func (p *Proc) flushUseNotices() {
	for _, o := range p.objs {
		p.noteUse(o)
	}
	for _, owner := range sortedKeys(p.useNotices) {
		m := p.useNotices[owner]
		if len(m) == 0 {
			continue
		}
		w := &wire{Kind: kValUsed}
		for _, n := range sortedKeys(m) {
			w.Names = append(w.Names, uint64(n))
			w.Counts = append(w.Counts, m[n])
		}
		p.send(owner, w)
		delete(p.useNotices, owner)
	}
}

// ---- message handlers ----

func (p *Proc) onValReg(w *wire) {
	d := p.dirEnt(Name(w.Name))
	d.known = true
	d.owner = w.SrcRank
	d.kind = ft.KindValue
	p.drainDirQueues(d)
}

// registerLocalOwner records this process as owner in its own directory
// and serves requests queued before the creation.
func (p *Proc) registerLocalOwner(name Name, kind ft.ObjKind) {
	d := p.dirEnt(name)
	d.known = true
	d.owner = p.cfg.Rank
	d.kind = kind
	p.drainDirQueues(d)
}

// drainDirQueues routes requests that arrived before the owner was known.
func (p *Proc) drainDirQueues(d *dirEntry) {
	pf := d.pendingFetch
	d.pendingFetch = nil
	for _, r := range pf {
		p.localValReq(d.name, r)
	}
	ps := d.pendingSnap
	d.pendingSnap = nil
	for _, r := range ps {
		p.localAccSnapReq(d.name, r)
	}
	p.pumpAccumQueue(d)
}

func (p *Proc) onValReq(w *wire) {
	p.localValReq(Name(w.Name), w.SrcRank)
}

func (p *Proc) onValReqFwd(w *wire) {
	// serveValueFetch handles all cases: created (serve now), not yet
	// created or mid-recovery (queue the requester).
	p.serveValueFetch(Name(w.Name), w.Target)
}

func (p *Proc) onValData(w *wire) {
	p.installValueCopy(w)
}

func (p *Proc) onPushData(w *wire) {
	p.installValueCopy(w)
}

// installValueCopy installs received value contents as a cached copy.
func (p *Proc) installValueCopy(w *wire) {
	if w.Inactive {
		p.ackPiece(w)
	}
	name := Name(w.Name)
	o := p.obj(name)
	if o.usable() || o.isMain {
		o.fetchOutstanding = false
		return // duplicate delivery of an immutable value
	}
	data, err := codec.Unpack(w.Body)
	if err != nil {
		return // dropped like a corrupt frame; re-issue paths recover
	}
	o.kind = ft.KindValue
	o.data = data
	o.ownerRank = w.SrcRank
	o.invalidatePackCache()
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamFetchData, Name: w.Name, Src: int64(w.SrcRank), Bytes: len(w.Body)})
	}
	p.touch(o)
	if w.Inactive {
		// Usable (and the fetch satisfied) only once the sender's
		// checkpoint commits; if the sender dies first, kRecovery drops
		// this and the fetch is re-issued.
		o.state = stInactive
		o.inactiveFrom = w.SrcRank
		o.inactiveSeq = w.Seq
		return
	}
	o.fetchOutstanding = false
	o.state = stPresent
	p.serveLocalWaiters(o)
	p.evictIfNeeded()
}

func (p *Proc) onValUsed(w *wire) {
	for i, nm := range w.Names {
		if i >= len(w.Counts) {
			break
		}
		o := p.objs[Name(nm)]
		if o == nil || !o.isMain {
			continue
		}
		o.accessesDone += w.Counts[i]
		p.checkExhausted(o)
	}
}
