package sam

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// Accumulators migrate between processes under mutual exclusion. The home
// process of an accumulator's name arbitrates: acquisition requests queue
// there in FIFO order, and the home orders the current owner to migrate
// the main copy to the next waiter. A migration transfers ownership and —
// because accumulator contents are nonreproducible — always rides a
// checkpoint transaction when fault tolerance is on.

// ---- application commands ----

func (p *Proc) cmdCreateAccum(c *cmd) {
	o := p.obj(c.name)
	if o.isMain && o.created && o.kind == ft.KindAccum {
		// Recovery replay: the accumulator was restored from its
		// checkpoint copy (or recreated); keep the restored contents.
		p.reply(c, nil, nil)
		return
	}
	o.kind = ft.KindAccum
	o.data = c.obj
	o.state = stPresent
	o.isMain = true
	o.created = true
	o.nonrepro = true // accumulator contents are never reproducible
	o.dirty = true
	o.dirtySeq++
	o.accessesDeclared = Unlimited
	p.touch(o)
	p.stepTainted = true
	p.taint.OnNonReexecutable()

	if h := p.home(c.name); h != p.cfg.Rank {
		p.send(h, &wire{Kind: kAccReg, Name: uint64(c.name)})
	} else {
		p.registerLocalOwner(c.name, ft.KindAccum)
	}
	// A recovering creator may have received a re-driven migration grant
	// before this (re-)creation: the home believes that grant is in
	// flight and will not issue another until it completes, so serve it
	// now that the main copy exists.
	p.drainPendingGrants(o)
	p.reply(c, nil, nil)
}

// drainPendingGrants replays migration grants that arrived while this
// process did not yet hold the accumulator's main copy (handleGrant
// stashes them). Every transition to isMain must drain the stash: a
// grant left behind keeps the home's grantInFlight set forever and
// wedges every queued acquirer.
func (p *Proc) drainPendingGrants(o *object) {
	if !o.isMain || len(o.pendingGrants) == 0 {
		return
	}
	grants := o.pendingGrants
	o.pendingGrants = nil
	for _, g := range grants {
		p.handleGrant(o.name, g)
	}
}

func (p *Proc) cmdUpdateAccum(c *cmd) {
	p.st.SharedAccesses.Add(1)
	o := p.obj(c.name)
	p.touch(o)
	if o.isMain && o.created && o.state == stPresent && !o.accLocked && o.pendingMove < 0 {
		// Fast path: we own the accumulator and no migration is pending.
		p.grantAccumLock(o, c)
		return
	}
	p.st.Misses.Add(1)
	if o.isMain && o.state == stPresent && o.accLocked {
		// The application has a single thread, so a locked accumulator
		// here means unbalanced Update/Release calls.
		p.reply(c, nil, fmt.Errorf("UpdateAccum(%v): already locked locally", c.name))
		return
	}
	// Note: an outbound migration may be pending (pendingMove >= 0); the
	// acquire then queues at the home and is served when the accumulator
	// migrates back, preserving the home's FIFO order.
	if !o.fetchOutstanding {
		o.fetchOutstanding = true
		o.reqKind = kAccAcq
		h := p.home(c.name)
		if h == p.cfg.Rank {
			p.localAccAcq(c.name, p.cfg.Rank)
		} else {
			p.send(h, &wire{Kind: kAccAcq, Name: uint64(c.name)})
		}
	}
	o.waiters = append(o.waiters, c)
	p.park(c)
}

// grantAccumLock gives the application the update lock on a local main
// copy. Observing the accumulator's current contents is the canonical
// non-reexecutable operation.
func (p *Proc) grantAccumLock(o *object, c *cmd) {
	o.accLocked = true
	p.stepTainted = true
	p.taint.OnNonReexecutable()
	if p.appParked == c {
		p.appParked = nil
	}
	p.reply(c, o.data, nil)
}

func (p *Proc) cmdReleaseAccum(c *cmd) {
	o := p.objs[c.name]
	if o == nil || !o.accLocked {
		p.reply(c, nil, fmt.Errorf("ReleaseAccum(%v) without UpdateAccum", c.name))
		return
	}
	o.accLocked = false
	o.dirty = true
	o.dirtySeq++
	o.accSnapSeq++
	o.version++
	p.touch(o)
	// Serve a migration that arrived while the application held the lock.
	p.tryMigrate(o)
	// Serve chaotic-read snapshots deferred during the update.
	if len(o.remoteWaiters) > 0 && o.kind == ft.KindAccum {
		rw := o.remoteWaiters
		o.remoteWaiters = nil
		for _, r := range rw {
			p.serveAccumSnapshot(o, r)
		}
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdChaoticRead(c *cmd) {
	p.st.SharedAccesses.Add(1)
	o := p.obj(c.name)
	p.touch(o)
	if o.usable() && o.kind == ft.KindAccum {
		p.serveChaoticLocal(o, c)
		return
	}
	p.st.Misses.Add(1)
	if !o.fetchOutstanding {
		o.fetchOutstanding = true
		o.reqKind = kAccSnapReq
		h := p.home(c.name)
		if h == p.cfg.Rank {
			p.localAccSnapReq(c.name, p.cfg.Rank)
		} else {
			p.send(h, &wire{Kind: kAccSnapReq, Name: uint64(c.name)})
		}
	}
	o.waiters = append(o.waiters, c)
	p.park(c)
}

// serveChaoticLocal returns the locally available version (current
// contents if we own it, a stale cached version otherwise). A chaotic
// read observes nondeterministic data and taints the step.
func (p *Proc) serveChaoticLocal(o *object, c *cmd) {
	p.stepTainted = true
	p.taint.OnNonReexecutable()
	if p.appParked == c {
		p.appParked = nil
	}
	p.reply(c, o.data, nil)
}

// ---- home-side arbitration ----

func (p *Proc) localAccAcq(name Name, requester int) {
	d := p.dirEnt(name)
	d.kind = ft.KindAccum
	d.enqueueAcq(requester)
	p.pumpAccumQueue(d)
}

// pumpAccumQueue issues the next migration grant if the owner is known
// and no grant is outstanding.
func (p *Proc) pumpAccumQueue(d *dirEntry) {
	if !d.known || d.grantInFlight || len(d.acqQueue) == 0 {
		return
	}
	next := d.acqQueue[0]
	d.acqQueue = d.acqQueue[1:]
	if next == d.owner {
		// The owner re-requested what it already holds (a recovery
		// replay); nothing to migrate.
		p.pumpAccumQueue(d)
		return
	}
	d.grantInFlight = true
	d.grantTarget = next
	if d.owner == p.cfg.Rank {
		p.handleGrant(d.name, next)
		return
	}
	p.send(d.owner, &wire{Kind: kAccGrant, Name: uint64(d.name), Target: next})
}

func (p *Proc) localAccSnapReq(name Name, requester int) {
	d := p.dirEnt(name)
	if !d.known {
		d.enqueueSnap(requester)
		return
	}
	if d.owner == p.cfg.Rank {
		o := p.objs[name]
		if o != nil && o.isMain {
			p.queueOrServeSnapshot(o, requester)
		}
		return
	}
	p.send(d.owner, &wire{Kind: kAccSnapFwd, Name: uint64(name), Target: requester})
}

// ---- owner-side migration ----

// handleGrant processes a migration order at the current owner.
func (p *Proc) handleGrant(name Name, target int) {
	o := p.objs[name]
	if o == nil || !o.isMain {
		// Either ownership moved on (tell the home who has it now) or we
		// are recovering and the restored main copy has not arrived yet
		// (remember the grant; a later transition to isMain — restore,
		// migration-in, or re-creation by a recovering creator — drains it).
		if o != nil && !o.isMain && o.usable() && o.ownerRank >= 0 && o.ownerRank != p.cfg.Rank {
			p.send(p.home(name), &wire{Kind: kAccOwner, Name: uint64(name), Target: o.ownerRank})
			return
		}
		oo := p.obj(name)
		for _, g := range oo.pendingGrants {
			if g == target {
				return
			}
		}
		oo.pendingGrants = append(oo.pendingGrants, target)
		return
	}
	o.pendingMove = target
	p.tryMigrate(o)
}

// tryMigrate performs a pending outbound migration once the accumulator
// is locally quiescent: present (an inactive copy is still owned by the
// sender's uncommitted checkpoint) and unlocked. A local acquire that the
// accumulator arrived for is always granted at the present-transition,
// before any migration attempt, so the home's grant order is honored.
func (p *Proc) tryMigrate(o *object) {
	if o.pendingMove < 0 || o.migrationQueued || !o.isMain ||
		o.state != stPresent || o.accLocked {
		return
	}
	if p.ftEnabled() {
		// The transfer is nonreproducible data changing hands: it rides a
		// checkpoint transaction and ownership commits with it (§4.4).
		o.migrationQueued = true
		p.addTrigger(trigger{kind: kAccData, name: o.name, target: o.pendingMove})
		return
	}
	target := o.pendingMove
	o.pendingMove = -1
	p.completeMigration(o, target, false, 0)
}

// completeMigration performs the actual ownership transfer.
func (p *Proc) completeMigration(o *object, target int, inactive bool, seq int64) {
	body := p.packObject(o)
	p.st.ObjectSends.Add(1)
	if inactive {
		p.st.CkptCausingSends.Add(1)
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamMigrateOut, Name: uint64(o.name), Dst: int64(target), Bytes: len(body)})
	}
	p.send(target, &wire{Kind: kAccData, Name: uint64(o.name), Body: body, Inactive: inactive, Seq: seq, Target: target, Meta: o.meta(), HasMeta: true})
	// The local entry becomes a stale cached version for chaotic reads;
	// record the successor so stale grants can be re-routed.
	o.isMain = false
	o.accLocked = false
	o.dirty = false
	o.ownerRank = target
	// Ownership left: the new owner packs from here on.
	o.invalidatePackCache()
	// Both ends inform the home; either message suffices and they agree.
	p.send(p.home(o.name), &wire{Kind: kAccOwner, Name: uint64(o.name), Target: target})
}

// ---- snapshots (chaotic reads) ----

// queueOrServeSnapshot serves a chaotic-read snapshot unless the
// application currently holds the update lock (the contents are being
// mutated); deferred snapshots are served at release.
func (p *Proc) queueOrServeSnapshot(o *object, requester int) {
	if o.accLocked {
		for _, r := range o.remoteWaiters {
			if r == requester {
				return
			}
		}
		o.remoteWaiters = append(o.remoteWaiters, requester)
		return
	}
	p.serveAccumSnapshot(o, requester)
}

// serveAccumSnapshot sends the accumulator's current contents as a
// (stale-allowed) snapshot. Nonreproducible uncovered contents ride a
// checkpoint transaction.
func (p *Proc) serveAccumSnapshot(o *object, requester int) {
	if requester == p.cfg.Rank {
		return
	}
	if p.unstable(o) {
		p.addTrigger(trigger{kind: kAccSnap, name: o.name, target: requester})
		return
	}
	body := p.packObject(o)
	p.st.ObjectSends.Add(1)
	p.send(requester, &wire{Kind: kAccSnap, Name: uint64(o.name), Body: body})
}

// ---- message handlers ----

func (p *Proc) onAccReg(w *wire) {
	d := p.dirEnt(Name(w.Name))
	d.known = true
	d.owner = w.SrcRank
	d.kind = ft.KindAccum
	p.drainDirQueues(d)
}

func (p *Proc) onAccAcq(w *wire) {
	p.localAccAcq(Name(w.Name), w.SrcRank)
}

func (p *Proc) onAccGrant(w *wire) {
	p.handleGrant(Name(w.Name), w.Target)
}

func (p *Proc) onAccData(w *wire) {
	if w.Inactive {
		p.ackPiece(w)
	}
	name := Name(w.Name)
	o := p.obj(name)
	data, err := codec.Unpack(w.Body)
	if err != nil {
		return
	}
	o.kind = ft.KindAccum
	o.data = data
	o.created = true
	o.isMain = true
	o.nonrepro = true
	o.dirty = true
	o.dirtySeq++
	o.invalidatePackCache()
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamMigrateIn, Name: w.Name, Src: int64(w.SrcRank), Bytes: len(w.Body)})
	}
	if w.HasMeta && w.Meta.Version > o.version {
		o.version = w.Meta.Version
	}
	o.pendingMove = -1
	o.migrationQueued = false
	p.touch(o)
	if w.Inactive {
		// Ownership commits with the sender's checkpoint; if the sender
		// dies first, kRecovery reverts this entry and the acquisition is
		// re-driven by the home.
		o.state = stInactive
		o.inactiveFrom = w.SrcRank
		o.inactiveSeq = w.Seq
		// The sender's transaction also places fresh checkpoint copies of
		// this object under our ownership, stamped with the sender's
		// sequence number. Adopt them as our backing checkpoint:
		// bookkeeping left over from an earlier ownership epoch names
		// copies that are gone or stale, and would poison the recovery
		// re-supply path and free accounting.
		o.ckptBytes = w.Body
		o.ckptMeta = o.meta()
		o.ckptSeq = w.Seq
		p.store.Record(uint64(name), w.Seq, unpackHolders(w.Holders))
		// Grants stashed while we were not the owner become a pending
		// move now; tryMigrate waits for the activate.
		p.drainPendingGrants(o)
		return
	}
	o.fetchOutstanding = false
	o.state = stPresent
	p.serveLocalWaiters(o)
	p.drainPendingGrants(o)
}

func (p *Proc) onAccOwner(w *wire) {
	d := p.dirEnt(Name(w.Name))
	d.known = true
	d.kind = ft.KindAccum
	if d.grantInFlight {
		if w.Target == d.grantTarget {
			// The grant we issued completed.
			d.grantInFlight = false
			d.grantTarget = -1
		} else {
			// A migration other than the one we granted completed (a
			// stale grant that raced a recovery, or a pre-failure
			// migration we only now learn about). Our grant chased a
			// stale owner: re-drive it at the new owner so the queue
			// keeps moving.
			d.owner = w.Target
			p.send(d.owner, &wire{Kind: kAccGrant, Name: uint64(d.name), Target: d.grantTarget})
			return
		}
	}
	d.owner = w.Target
	p.pumpAccumQueue(d)
}

func (p *Proc) onAccSnapReq(w *wire) {
	p.localAccSnapReq(Name(w.Name), w.SrcRank)
}

func (p *Proc) onAccSnapFwd(w *wire) {
	o := p.objs[Name(w.Name)]
	if o == nil || !o.isMain {
		// Stale forward: point the home at the successor if known.
		if o != nil && o.ownerRank >= 0 {
			p.send(p.home(Name(w.Name)), &wire{Kind: kAccOwner, Name: w.Name, Target: o.ownerRank})
		}
		return
	}
	p.queueOrServeSnapshot(o, w.Target)
}

func (p *Proc) onAccSnap(w *wire) {
	if w.Inactive {
		p.ackPiece(w)
	}
	name := Name(w.Name)
	o := p.obj(name)
	o.fetchOutstanding = false
	if o.isMain {
		return // we became the owner meanwhile; our copy is fresher
	}
	data, err := codec.Unpack(w.Body)
	if err != nil {
		return
	}
	o.kind = ft.KindAccum
	o.data = data
	o.ownerRank = w.SrcRank
	o.invalidatePackCache()
	p.touch(o)
	if w.Inactive {
		o.state = stInactive
		o.inactiveFrom = w.SrcRank
		o.inactiveSeq = w.Seq
		return
	}
	o.state = stPresent
	p.serveLocalWaiters(o)
}
