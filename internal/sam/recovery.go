package sam

import (
	"sort"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/trace"
)

// This file implements §4.5: failure detection via PVM notifications, the
// coordinator-driven restart of the failed process under a fresh task id,
// and the restoration of its private state, owned objects, directory
// information, and checkpoint copies by the surviving processes.

// restoreState tracks a recovering process's progress toward resumption.
type restoreState struct {
	priv       *ft.PrivateState
	privSeq    int64
	privBytes  []byte // packed form of priv, kept for re-replication
	freshVotes map[int]bool
	data       map[Name]*wire // best kRecoverData per name
	done       bool
}

func newRestoreState() *restoreState {
	return &restoreState{
		freshVotes: make(map[int]bool),
		data:       make(map[Name]*wire),
	}
}

type restoreResult struct {
	fresh bool
	steps int64
	snap  []byte
}

// awaitRestore blocks the application goroutine until the runtime has
// assembled the recovered state.
func (p *Proc) awaitRestore() (fresh bool, steps int64, snap []byte) {
	select {
	case r := <-p.restorec:
		return r.fresh, r.steps, r.snap
	case <-p.deadc:
		panic(procKilled{p.cfg.Rank})
	}
}

// ---- failure detection ----

// handleTaskExit processes a PVM task-exit notification. Notifications
// may be duplicated (a chaotic network, or both the direct notification
// and a relayed kFailed); all paths funnel into the idempotent
// deadRanks/dispatchFailures machinery.
func (p *Proc) handleTaskExit(dead netsim.TID) {
	rank := -1
	for r, tid := range p.ranks {
		if tid == dead {
			rank = r
			break
		}
	}
	if rank < 0 || rank == p.cfg.Rank {
		return // stale incarnation or self: ignore
	}
	p.deadRanks[rank] = dead
	p.dispatchFailures()
}

func (p *Proc) onFailed(w *wire) {
	rank := w.Target
	if rank < 0 || rank >= p.cfg.N || rank == p.cfg.Rank {
		return
	}
	dead := netsim.TID(w.Seq)
	if p.ranks[rank] != dead {
		return // stale report: the table already moved past that incarnation
	}
	p.deadRanks[rank] = dead
	p.dispatchFailures()
}

// liveCoordinator picks the recovery coordinator for a failed rank: the
// lowest rank not known dead (and not the failed rank itself). This
// generalizes the paper's distinguished-process rule to overlapping
// failures: when the coordinator itself dies, the next rank in line
// observes both deaths and takes over. Different processes may briefly
// disagree (failure knowledge is local), which is safe because restarts
// are idempotent in the harness (keyed on the dead incarnation's tid).
func (p *Proc) liveCoordinator(failed int) int {
	for r := 0; r < p.cfg.N; r++ {
		if r == failed {
			continue
		}
		if _, dead := p.deadRanks[r]; dead {
			continue
		}
		return r
	}
	return p.cfg.Rank
}

// dispatchFailures drives recovery for every known-dead, not-yet-replaced
// incarnation: start it here when this process is the (live) coordinator,
// otherwise relay the report. Entries persist until the replacement
// incarnation is installed, so discovering a coordinator's death later
// re-dispatches the failures it was responsible for — the takeover path.
func (p *Proc) dispatchFailures() {
	ranks := make([]int, 0, len(p.deadRanks))
	for r := range p.deadRanks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		dead := p.deadRanks[rank]
		coord := p.liveCoordinator(rank)
		if coord == p.cfg.Rank {
			p.startRecovery(rank, dead)
			continue
		}
		k := failKey{rank: rank, tid: dead, coord: coord}
		if p.relayedFail[k] {
			continue
		}
		p.relayedFail[k] = true
		p.send(coord, &wire{Kind: kFailed, Target: rank, Seq: int64(dead)})
	}
}

// startRecovery runs on a coordinator: restart the failed rank and tell
// everyone. Duplicate reports are filtered by comparing the dead tid with
// the current rank table — once a restart happened the table moved on.
// Competing coordinators (possible while failure knowledge differs) are
// resolved by the harness: Respawn is idempotent per dead incarnation.
func (p *Proc) startRecovery(rank int, dead netsim.TID) {
	if p.ranks[rank] != dead {
		return // already recovered (or the report is stale)
	}
	if p.cfg.Respawn == nil {
		return // harness does not support recovery (tests without it)
	}
	newTID := p.cfg.Respawn(rank, dead)
	if newTID == pvm.NoTID {
		return // harness is shutting down
	}
	p.handleRecoveryLocal(rank, newTID)
	for r := range p.ranks {
		if r == p.cfg.Rank || r == rank {
			continue
		}
		p.send(r, &wire{Kind: kRecovery, Target: rank, NewTID: int(newTID)})
	}
}

func (p *Proc) onRecovery(w *wire) {
	p.handleRecoveryLocal(w.Target, netsim.TID(w.NewTID))
}

// onRecoverReq handles a restarted process's own announcement: install
// the incarnation if it is news, then (re)send our contribution. The
// explicit request overrides the sent-once filter — the requester is
// telling us it is still missing contributions, e.g. because an earlier
// one went to a previous incarnation that died with it.
func (p *Proc) onRecoverReq(w *wire) {
	rank := w.Target
	if rank < 0 || rank >= p.cfg.N || rank == p.cfg.Rank {
		return
	}
	newTID := netsim.TID(w.NewTID)
	if newTID < p.ranks[rank] {
		return // stale incarnation announcing itself after its own death
	}
	if newTID > p.ranks[rank] {
		p.installNewIncarnation(rank, newTID)
	}
	delete(p.contributedTo, rank)
	p.contributeIfNeeded(rank)
}

// handleRecoveryLocal is each surviving process's part of §4.5: update the
// rank table, then supply the new process with everything it needs. TIDs
// increase monotonically, so ordering resolves races between competing
// recovery broadcasts for the same rank.
func (p *Proc) handleRecoveryLocal(rank int, newTID netsim.TID) {
	if rank == p.cfg.Rank {
		return
	}
	if newTID < p.ranks[rank] {
		return // stale broadcast about an incarnation we already outlived
	}
	if newTID > p.ranks[rank] {
		p.installNewIncarnation(rank, newTID)
	}
	p.contributeIfNeeded(rank)
}

// installNewIncarnation switches the rank table to a restarted process's
// new tid and reconciles every piece of local state that referred to the
// dead incarnation.
func (p *Proc) installNewIncarnation(rank int, newTID netsim.TID) {
	p.ranks[rank] = newTID
	delete(p.deadRanks, rank)
	p.task.Notify(newTID)

	// Stamps sent to the dead incarnation may be lost with it; the next
	// piggyback to the replacement must carry the full T vector.
	p.clocks.ResetPeer(rank)

	// Drop everything provisional from the failed process's uncommitted
	// checkpoint: it recovers from its last *committed* state.
	p.dropProvisionalFrom(rank)

	// Whatever committed checkpoint copies the dead incarnation held are
	// gone with its memory: strike it from the coverage ledger and queue
	// the affected objects for proactive repair (run when we contribute
	// to the replacement's recovery, once our own tables are usable).
	for _, name := range p.store.DropRank(rank) {
		p.repairPending[Name(name)] = true
	}

	// If this process is itself mid-recovery, the failed rank's
	// contribution — including its kRecoverFin — may have been lost with
	// it (sent to our current incarnation or never sent at all). Ask the
	// replacement to contribute, re-deriving the fin quorum from the live
	// incarnation set instead of waiting forever on a ghost.
	if p.cfg.Recovering && (p.restore != nil || !p.orphansDecided) {
		p.send(rank, &wire{Kind: kRecoverReq, Target: p.cfg.Rank, NewTID: int(p.task.TID())})
	}

	// Owner queries answered by nobody: if the home of a still-unresolved
	// hint died (possibly with our query in its mailbox), ask its
	// replacement once it is up.
	if p.cfg.Recovering && p.orphansDecided {
		for _, name := range sortedKeys(p.orphanHints) {
			if p.home(name) == rank && !p.ownerConfirmed[name] {
				p.sendOwnerQuery(name)
			}
		}
		for _, name := range sortedKeys(p.unconfirmedData) {
			if p.home(name) == rank && !p.ownerConfirmed[name] {
				p.sendOwnerQuery(name)
			}
		}
	}
}

// contributeIfNeeded sends this process's recovery contribution to a
// restarted rank's current incarnation, at most once per incarnation. A
// process still restoring its own state defers: its tables are empty
// until checkRestoreComplete, and a premature kRecoverFin would assert a
// contribution that never happened.
func (p *Proc) contributeIfNeeded(rank int) {
	cur := p.ranks[rank]
	if p.contributedTo[rank] == cur {
		return
	}
	if p.restore != nil {
		p.pendingContrib[rank] = true
		return
	}
	p.contributedTo[rank] = cur
	delete(p.pendingContrib, rank)
	p.contributeRecovery(rank)
}

// flushPendingContrib sends contributions deferred while this process's
// own restore was in progress. Runs after checkRestoreComplete resumes
// the application (either path).
func (p *Proc) flushPendingContrib() {
	ranks := make([]int, 0, len(p.pendingContrib))
	for r := range p.pendingContrib {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		p.contributeIfNeeded(r)
	}
}

// contributeRecovery supplies a restarted process with everything this
// survivor holds for it, ending with kRecoverFin.
func (p *Proc) contributeRecovery(rank int) {
	// Private state of the failed process.
	if b, ok := p.privStore[rank]; ok {
		p.send(rank, &wire{Kind: kRecoverPriv, Body: b, Seq: p.privStoreSeq[rank]})
	} else {
		for _, h := range ft.PrivateStateRanks(rank, p.cfg.N, p.cfg.Degree) {
			if h == p.cfg.Rank {
				p.send(rank, &wire{Kind: kRecoverPriv, Fresh: true})
			}
		}
	}

	// Re-replicate our own private state if its copy lived on the failed
	// process (guards the window until our next checkpoint).
	for _, h := range ft.PrivateStateRanks(p.cfg.Rank, p.cfg.N, p.cfg.Degree) {
		if h == rank && p.lastPrivBytes != nil {
			p.send(rank, &wire{Kind: kCkptPriv, Body: p.lastPrivBytes, Seq: p.lastPrivSeq, Piece: -1})
		}
	}

	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		// Checkpoint copies whose main copy was at the failed process:
		// restore them (the new process again holds the main copy).
		if o.ckptCopy && o.copyOwner == rank {
			w := &wire{
				Kind: kRecoverData, Name: uint64(o.name), Body: o.copyBytes,
				Meta: o.savedMeta, HasMeta: true, Seq: o.copySeq,
			}
			if o.shardIdx > 0 {
				w.Shard, w.ShardK, w.ShardM, w.FrameLen = o.shardIdx, o.shardK, o.shardM, o.frameLen
			}
			p.send(rank, w)
		}
		if o.isMain && o.created {
			// Directory information homed at the failed process. (Main
			// copies whose checkpoint copies died with it are re-supplied
			// by the ledger-driven repair pass below, which follows the
			// ledger rather than recomputing the ring set, since repair
			// may already have moved copies off it.)
			if p.home(o.name) == rank {
				p.send(rank, &wire{Kind: kDirReport, Name: uint64(o.name), Meta: o.meta(), HasMeta: true})
			}
		}
		// As a previous holder of an accumulator whose last outbound
		// migration went to the failed process, hint its ownership with
		// the version at that migration. The hint may be stale (ownership
		// may have moved on); the new process only believes the hints if
		// no live process claims the main copy.
		if o.kind == ft.KindAccum && !o.isMain && o.ownerRank == rank && o.usable() {
			p.send(rank, &wire{Kind: kOwnerHint, Name: uint64(o.name), Meta: ft.ObjectMeta{Version: o.version}, HasMeta: true})
		}
		// Requests outstanding to anyone are re-issued; the failed process
		// may have lost them (queued at its directory or owner role).
		if o.fetchOutstanding && o.reqKind != 0 {
			h := p.home(o.name)
			if h == p.cfg.Rank {
				switch o.reqKind {
				case kValReq:
					p.localValReq(o.name, p.cfg.Rank)
				case kAccAcq:
					p.localAccAcq(o.name, p.cfg.Rank)
				case kAccSnapReq:
					p.localAccSnapReq(o.name, p.cfg.Rank)
				}
			} else {
				p.send(h, &wire{Kind: o.reqKind, Name: uint64(o.name)})
			}
		}
	}

	// Re-drive accumulator migration grants that were addressed to the
	// failed owner (lost with it); the restored owner replays the
	// release-and-migrate. As the home, also confirm to the new process
	// which objects it owns — recovery data for objects acquired after
	// its last checkpoint is only installed once confirmed.
	for _, name := range sortedKeys(p.dir) {
		d := p.dir[name]
		if d.known && d.owner == rank {
			p.send(rank, &wire{Kind: kOwnerReport, Name: uint64(d.name)})
		}
		if d.grantInFlight && d.owner == rank {
			p.send(rank, &wire{Kind: kAccGrant, Name: uint64(d.name), Target: d.grantTarget})
		}
	}

	// Abort-and-restart our in-flight checkpoint pieces addressed to the
	// failed process: even acked pieces died with its memory, so all are
	// re-sent to the new incarnation (duplicate acks are filtered by
	// piece number).
	if p.tx != nil {
		for i := range p.tx.pieces {
			pc := &p.tx.pieces[i]
			if pc.rank == rank {
				p.send(rank, pc.w)
			}
		}
	}

	// Proactively restore coverage for our own objects whose copies died
	// with the failed incarnation (queued by installNewIncarnation's
	// ledger DropRank). The repair copies go to the first ranks in ring
	// order that hold none: often the restarted rank, but any live rank
	// when earlier repairs already moved copies.
	p.repairCoverage()

	// Everything this survivor contributes has been sent; the new process
	// decides orphan ownership once all contributions are in.
	p.send(rank, &wire{Kind: kRecoverFin})
}

// dropProvisionalFrom discards uncommitted checkpoint state received from
// a process that failed before activating it: the staged private state,
// staged checkpoint copies, and inactive data objects. Fetches satisfied
// only by dropped inactive data are re-issued.
func (p *Proc) dropProvisionalFrom(rank int) {
	delete(p.privStaging, rank)
	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		if o.pendingCopy != nil && o.pendingCopy.SrcRank == rank {
			o.pendingCopy = nil
		}
		if o.state == stInactive && o.inactiveFrom == rank {
			// Revert to absent and re-drive the request so the restored
			// process serves it again after its replay.
			o.state = stAbsent
			o.data = nil
			o.isMain = false
			o.created = false
			o.invalidatePackCache()
			if len(o.waiters) > 0 && o.fetchOutstanding && o.reqKind != 0 {
				h := p.home(o.name)
				if h == p.cfg.Rank {
					switch o.reqKind {
					case kValReq:
						p.localValReq(o.name, p.cfg.Rank)
					case kAccAcq:
						p.localAccAcq(o.name, p.cfg.Rank)
					case kAccSnapReq:
						p.localAccSnapReq(o.name, p.cfg.Rank)
					}
				} else {
					p.send(h, &wire{Kind: o.reqKind, Name: uint64(o.name)})
				}
			}
		}
	}
}

// ---- recovering-process side ----

func (p *Proc) onRecoverPriv(w *wire) {
	if p.restore == nil || p.restore.done {
		return
	}
	if w.Fresh {
		p.restore.freshVotes[w.SrcRank] = true
		p.checkRestoreComplete()
		return
	}
	if p.restore.priv == nil || w.Seq > p.restore.privSeq {
		v, err := codec.Unpack(w.Body)
		if err != nil {
			return
		}
		priv, ok := v.(*ft.PrivateState)
		if !ok {
			return
		}
		p.restore.priv = priv
		p.restore.privSeq = w.Seq
		p.restore.privBytes = w.Body
	}
	p.checkRestoreComplete()
}

func (p *Proc) onRecoverData(w *wire) {
	p.noteRecoverContrib(w)
	if w.Shard > 0 {
		// An erasure shard: fold it into the assembler; only a decoded
		// full frame proceeds into the install paths below.
		if p.recoverInstalled[Name(w.Name)] {
			return
		}
		w = p.assembleShards(w)
		if w == nil {
			return
		}
	}
	if p.restore != nil && !p.restore.done {
		name := Name(w.Name)
		prev := p.restore.data[name]
		better := prev == nil
		if !better && w.HasMeta && prev.HasMeta {
			better = w.Meta.Version >= prev.Meta.Version
		} else if !better {
			better = w.SrcRank != prev.SrcRank || w.Seq >= prev.Seq
		}
		if better {
			p.restore.data[name] = w
		}
		p.checkRestoreComplete()
		return
	}
	// Late or post-restore arrival (e.g. an accumulator acquired after the
	// failed process's last checkpoint): install only once ownership is
	// confirmed — a stale checkpoint copy naming us as owner must not fork
	// the object (the real main may be alive elsewhere).
	p.stashOrInstall(w)
}

// stashOrInstall installs recovery data for a name missing from the
// private state once (and only once) its ownership is confirmed.
func (p *Proc) stashOrInstall(w *wire) {
	name := Name(w.Name)
	if p.recoverInstalled[name] {
		// Already restored once this incarnation. The object may since
		// have migrated away (isMain is false again), so a duplicate
		// contribution must not re-install it.
		return
	}
	if o := p.objs[name]; o != nil && o.isMain && o.created {
		return
	}
	if p.ownerConfirmed[name] {
		p.installRecoveredMain(w, nil)
		return
	}
	prev := p.unconfirmedData[name]
	better := prev == nil
	if !better && w.HasMeta && prev.HasMeta {
		better = w.Meta.Version >= prev.Meta.Version
	} else if !better {
		better = w.SrcRank != prev.SrcRank || w.Seq >= prev.Seq
	}
	if better {
		p.unconfirmedData[name] = w
	}
}

// onOwnerReport records that a surviving home asserts we own the named
// object (authoritative: homes learn ownership only from committed
// migrations), and installs any stashed recovery data.
func (p *Proc) onOwnerReport(w *wire) {
	name := Name(w.Name)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamOwnerGrant, Name: w.Name, Src: int64(w.SrcRank)})
	}
	p.ownerConfirmed[name] = true
	if d, ok := p.unconfirmedData[name]; ok {
		delete(p.unconfirmedData, name)
		p.installRecoveredMain(d, nil)
		p.repairCoverage()
	}
}

// onOwnerHint records a version-stamped claim that an object's last known
// migration pointed at this process. Hints are only believed after every
// survivor has reported and no live process claims the main copy.
func (p *Proc) onOwnerHint(w *wire) {
	name := Name(w.Name)
	if w.Meta.Version >= p.orphanHints[name] {
		p.orphanHints[name] = w.Meta.Version
	}
	p.decideOrphans()
}

func (p *Proc) onRecoverFin(w *wire) {
	p.finsGot[w.SrcRank] = true
	p.decideOrphans()
}

// decideOrphans resolves ownership of objects that were migrating around
// this process's death and are absent from its private state. It runs
// once, after every peer's recovery contribution has arrived: if no
// live process claimed an object's main copy (via kDirReport / its own
// operation), the most recent committed migration pointed here, so this
// process owns it. The quorum is per rank, not per incarnation: when a
// contributor dies before its kRecoverFin lands, installNewIncarnation
// re-solicits from the replacement via kRecoverReq, so the fin set is
// effectively re-derived from the live incarnation set.
func (p *Proc) decideOrphans() {
	if p.orphansDecided || len(p.finsGot) < p.cfg.N-1 {
		return
	}
	p.orphansDecided = true
	names := make(map[Name]bool, len(p.orphanHints)+len(p.unconfirmedData))
	for n := range p.orphanHints {
		names[n] = true
	}
	for n := range p.unconfirmedData {
		names[n] = true
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamRecDir, Aux: int64(len(names))})
	}
	for _, name := range sortedKeys(names) {
		if o := p.objs[name]; o != nil && o.isMain && o.created {
			continue
		}
		if p.home(name) != p.cfg.Rank {
			// The home arbitrates: a surviving home's directory is
			// authoritative, and a home that was down alongside us has
			// rebuilt its directory from every survivor's reports by the
			// time it answers. It replies kOwnerReport (install) or
			// kOwnerDeny (the hint predates a later migration; drop it).
			p.sendOwnerQuery(name)
			continue
		}
		if d, ok := p.dir[name]; ok && d.known && d.owner != p.cfg.Rank {
			continue // a live process claimed the main copy
		}
		p.ownerConfirmed[name] = true
		if w, ok := p.unconfirmedData[name]; ok {
			delete(p.unconfirmedData, name)
			p.installRecoveredMain(w, nil)
		}
	}
	// Answer queries deferred while our own directory was being rebuilt.
	qs := p.pendingOwnerQueries
	p.pendingOwnerQueries = nil
	for _, w := range qs {
		p.onOwnerQuery(w)
	}
	p.repairCoverage()
}

// sendOwnerQuery asks an object's home whether the most recent committed
// migration left the main copy here.
func (p *Proc) sendOwnerQuery(name Name) {
	ver := p.orphanHints[name]
	if w := p.unconfirmedData[name]; w != nil && w.HasMeta && w.Meta.Version > ver {
		ver = w.Meta.Version
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamOwnerQuery, Name: uint64(name), Dst: int64(p.home(name)), Aux: ver})
	}
	p.send(p.home(name), &wire{Kind: kOwnerQuery, Name: uint64(name),
		Meta: ft.ObjectMeta{Version: ver}, HasMeta: true})
}

// onOwnerQuery arbitrates an orphan-ownership claim. With up to Degree
// simultaneous failures and Degree checkpoint-copy holders, at most one
// dead rank can hold an object's committed main copy, so granting the
// first otherwise-unclaimed query is sound.
func (p *Proc) onOwnerQuery(w *wire) {
	if p.cfg.Recovering && !p.orphansDecided {
		// Our directory is still being rebuilt from survivors' reports;
		// answering now could grant an object a live process owns.
		p.pendingOwnerQueries = append(p.pendingOwnerQueries, w)
		return
	}
	name := Name(w.Name)
	d := p.dirEnt(name)
	if d.known && d.owner != w.SrcRank {
		p.send(w.SrcRank, &wire{Kind: kOwnerDeny, Name: w.Name})
		return
	}
	// No live process claims the object: the most recent committed
	// migration pointed at the querier, so it holds the main copy.
	d.known = true
	d.owner = w.SrcRank
	p.send(w.SrcRank, &wire{Kind: kOwnerReport, Name: w.Name})
	p.pumpAccumQueue(d)
}

func (p *Proc) onOwnerDeny(w *wire) {
	name := Name(w.Name)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamOwnerDeny, Name: w.Name, Src: int64(w.SrcRank)})
	}
	delete(p.unconfirmedData, name)
	delete(p.orphanHints, name)
}

func (p *Proc) onDirReport(w *wire) {
	d := p.dirEnt(Name(w.Name))
	d.known = true
	d.owner = w.SrcRank
	if w.HasMeta {
		d.kind = ft.ObjKind(w.Meta.Kind)
	}
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

// checkRestoreComplete resumes the application once the private state and
// every non-freeable owned object's data have arrived. Objects already
// marked freeable at the checkpoint may have been legitimately reclaimed
// since; the replay never touches them.
func (p *Proc) checkRestoreComplete() {
	rs := p.restore
	if rs == nil || rs.done {
		return
	}
	if rs.priv == nil {
		// Fresh restart only once every private-state holder has denied
		// having a copy.
		holders := ft.PrivateStateRanks(p.cfg.Rank, p.cfg.N, p.cfg.Degree)
		if len(rs.freshVotes) < len(holders) {
			return
		}
		rs.done = true
		p.restore = nil
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamRecRestore, Note: "fresh"})
		}
		p.restorec <- restoreResult{fresh: true}
		p.flushPendingContrib()
		p.repairCoverage()
		return
	}
	metaFor := make(map[Name]ft.ObjectMeta, len(rs.priv.Owned))
	for _, m := range rs.priv.Owned {
		metaFor[Name(m.Name)] = m
		if m.Freeable {
			continue
		}
		if _, ok := rs.data[Name(m.Name)]; !ok {
			return // still waiting for this object's data
		}
	}

	// Everything needed has arrived: restore.
	priv := rs.priv
	p.clocks.Restore(priv.T, priv.C, priv.D)
	p.stepsDone = priv.StepsDone
	p.boundarySnap = priv.AppState
	p.hasCheckpointed = true
	p.lastPrivSeq = priv.Seq
	// Retain the packed image: if a holder of our private-state copy fails
	// before our next checkpoint, the re-replication path needs the bytes.
	p.lastPrivBytes = rs.privBytes

	for _, name := range sortedKeys(rs.data) {
		w := rs.data[name]
		if m, ok := metaFor[name]; ok {
			p.installRecoveredMain(w, &m)
		} else {
			// Not owned at the last checkpoint: only an ownership
			// confirmation from the home or the previous holder may
			// promote this data to a main copy.
			p.stashOrInstall(w)
		}
	}
	rs.done = true
	p.restore = nil
	if p.rec != nil {
		p.emit(trace.Event{
			Kind: trace.SamRecRestore, Aux: priv.StepsDone,
			T: trace.CopyVec(priv.T), C: trace.CopyVec(priv.C), D: trace.CopyVec(priv.D),
		})
	}
	p.restorec <- restoreResult{fresh: false, steps: priv.StepsDone, snap: priv.AppState}
	p.flushPendingContrib()
	p.repairCoverage()
}

// installRecoveredMain re-creates the main copy of an object from a
// checkpoint copy. meta, when non-nil, is the (newer) record from the
// private state; otherwise the copy's carried metadata applies.
func (p *Proc) installRecoveredMain(w *wire, meta *ft.ObjectMeta) {
	name := Name(w.Name)
	p.recoverInstalled[name] = true
	o := p.obj(name)
	if o.isMain && o.created {
		return
	}
	data, err := codec.Unpack(w.Body)
	if err != nil {
		return
	}
	o.data = data
	o.state = stPresent
	o.isMain = true
	o.created = true
	o.dirty = false
	o.fetchOutstanding = false
	// Contents were replaced from the checkpoint image.
	o.invalidatePackCache()
	if meta != nil {
		o.applyMeta(*meta)
	} else if w.HasMeta {
		o.applyMeta(w.Meta)
	}
	if o.kind == ft.KindAccum {
		o.ckptBytes = w.Body
	}
	o.ckptMeta = o.meta()
	o.ckptSeq = w.Seq
	// Rebuild the coverage ledger from the contributions that actually
	// arrived — the holders that exist, not a recomputed placement — and
	// queue a repair pass to top the set back up to full coverage.
	p.store.Record(uint64(name), w.Seq, p.takeRecoverHolders(name, w.Seq))
	p.repairPending[name] = true
	o.pendingMove = -1
	p.touch(o)

	if p.home(name) == p.cfg.Rank {
		d := p.dirEnt(name)
		d.known = true
		d.owner = p.cfg.Rank
		d.kind = o.kind
		p.pumpAccumQueue(d)
	}
	if o.freeable {
		p.freePending[name] = true
	}
	p.serveLocalWaiters(o)
	p.serveRemoteWaiters(o)
	// Serve migration grants that raced ahead of the restoration.
	p.drainPendingGrants(o)
}
