package sam

import (
	"fmt"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// This file implements §4.3–§4.4 of the paper: the checkpoint transaction
// (private state + checkpoint copies + inactive/activate two-phase commit)
// and the lazy reclamation of freeable main copies via the virtual-time
// vectors, with force-checkpoint messages as the fallback.

// ckptTx is one in-flight checkpoint transaction.
type ckptTx struct {
	seq        int64
	acksNeeded int
	// inactive tracks the ranks that received inactive pieces and must be
	// sent the activation at commit.
	inactive map[int]bool
	// pieces are all messages sent for this transaction, kept so they can
	// be re-sent if a recipient fails mid-transaction (§4.5: "aborts and
	// restarts any checkpoint it has started that involves process p").
	pieces []txPiece
	// migrations are accumulator ownership transfers that commit with the
	// transaction.
	migrations []txMigration
	// dirtyAt records each replicated object's mutation counter at send
	// time; dirty is cleared at commit only if unchanged since.
	dirtyAt map[Name]int64
	// staleFrees are kFreeCkpt messages for superseded copy placements,
	// deferred to commit so an aborted transaction never drops the only
	// backup of an object.
	staleFrees []txPiece
	// migrHolders are the ledger entries for objects migrating in this
	// transaction: the copies were placed for the new owner, so the
	// holder set rides the kAccData wire instead of our ledger.
	migrHolders map[Name][]ckptstore.Holder
	// forced marks a transaction performed in response to a
	// force-checkpoint message.
	forced bool
}

type txPiece struct {
	rank      int
	w         *wire
	ackNeeded bool
	acked     bool
}

type txMigration struct {
	name   Name
	target int
}

// forceReq is a force-checkpoint request we must answer after our next
// committed checkpoint.
type forceReq struct {
	origin int
	name   Name
	f      int64
}

// maxFreeBacklog models cache replacement pressure: once this many
// freeable main copies are awaiting reclamation, the process sends
// force-checkpoint messages for the oldest instead of waiting for
// piggybacked knowledge. The paper frees lazily "at some point later,
// [when the copy] will be replaced in the cache".
const maxFreeBacklog = 256

// packObject returns the packed frame for a locally held object's current
// contents, consulting the version-keyed snapshot cache: if the object has
// not been mutated since the last pack (same dirtySeq), the previously
// produced bytes are reused and no modeled pack time is charged. This is
// the checkpoint hot path's first-order saving — an unchanged object costs
// nothing to re-replicate or re-serve.
func (p *Proc) packObject(o *object) []byte {
	if !p.cfg.NoSnapCache && o.packCache != nil && o.packCacheSeq == o.dirtySeq {
		p.st.SnapCacheHits.Add(1)
		p.st.SnapCacheBytesSaved.Add(int64(len(o.packCache)))
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamSnapHit, Name: uint64(o.name), Bytes: len(o.packCache)})
		}
		return o.packCache
	}
	b, err := codec.Pack(o.data)
	if err != nil {
		panic(fmt.Errorf("sam: pack %v: %w", o.name, err))
	}
	p.task.Charge(float64(len(b)) / packBytesPerUS)
	p.st.SnapCacheMisses.Add(1)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamSnapMiss, Name: uint64(o.name), Bytes: len(b)})
	}
	if !p.cfg.NoSnapCache {
		o.packCache = b
		o.packCacheSeq = o.dirtySeq
	}
	return b
}

// addTrigger queues a nonreproducible send to ride the next checkpoint
// transaction.
func (p *Proc) addTrigger(t trigger) {
	p.pendingTriggers = append(p.pendingTriggers, t)
	p.maybeStartTx()
}

// maybeStartTx starts a checkpoint transaction if one is needed and the
// application is at a consistent point: parked at a step boundary, parked
// mid-step with no non-reexecutable operation performed this step (the
// boundary snapshot plus deterministic replay reproduces it exactly), or
// finished.
func (p *Proc) maybeStartTx() {
	if !p.ftEnabled() || p.tx != nil || len(p.pendingTriggers) == 0 {
		return
	}
	switch {
	case p.gateCmd != nil:
		p.startTx()
	case p.appParked != nil && !p.stepTainted:
		p.startTx()
	case p.appFinished:
		p.startTx()
	}
}

// startTx executes §4.4's checkpoint steps.
func (p *Proc) startTx() {
	seq := p.clocks.BeginCheckpoint()
	tx := &ckptTx{
		seq:         seq,
		inactive:    make(map[int]bool),
		dirtyAt:     make(map[Name]int64),
		migrHolders: make(map[Name][]ckptstore.Holder),
		forced:      p.pendingForced,
	}
	p.pendingForced = false
	p.tx = tx
	if p.rec != nil {
		note := ""
		if tx.forced {
			note = "forced"
		}
		p.emit(trace.Event{Kind: trace.SamCkptBegin, Aux: seq, Note: note})
	}

	trigs := p.pendingTriggers
	p.pendingTriggers = nil

	// Accumulators migrating in this transaction: ownership transfers
	// commit with the checkpoint, so the private state records them as
	// no longer owned and their checkpoint copies are placed for (and
	// name) the new owner.
	migrating := make(map[Name]int)
	for _, t := range trigs {
		if t.kind == kAccData {
			migrating[t.name] = t.target
		}
	}

	// Step 1: replicate the private state. It is stored provisionally at
	// the holder and promoted by the activation at commit, so a process
	// that dies mid-transaction recovers from its previous committed
	// checkpoint (its uncommitted pieces are dropped by the survivors).
	priv := p.buildPrivateState(seq, migrating)
	body, err := codec.Pack(priv)
	if err != nil {
		panic(fmt.Errorf("sam: pack private state: %w", err))
	}
	p.lastPrivBytes = body
	p.lastPrivSeq = seq
	p.task.Charge(float64(len(body)) / packBytesPerUS)
	p.st.PrivBytes.Add(int64(len(body)))
	for _, r := range ft.PrivateStateRanks(p.cfg.Rank, p.cfg.N, p.cfg.Degree) {
		w := &wire{Kind: kCkptPriv, Body: body, Seq: seq, Inactive: true}
		p.txSend(r, w, true)
	}

	// Steps 2–3: replicate owned objects changed since the last
	// checkpoint. Nonreproducible objects go inactive (ack + activate);
	// reproducible ones go active immediately.
	copyHolders := make(map[Name]map[int]bool)
	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		if !o.isMain || !o.created || o.state != stPresent {
			continue
		}
		owner := p.cfg.Rank
		_, isMigrating := migrating[o.name]
		if isMigrating {
			owner = migrating[o.name]
		}
		// A migrating object is replicated even when clean: its existing
		// checkpoint copy names the old owner and would not restore to
		// the new one after a failure.
		if !o.dirty && !isMigrating {
			continue
		}
		holders := p.store.Plan(uint64(o.name), owner)
		ob := p.packObject(o)
		if o.kind == ft.KindAccum {
			o.ckptBytes = ob // frozen image for copy re-supply
		}
		o.ckptMeta = o.meta()
		o.ckptSeq = seq
		ec := p.store.EC()
		hs := make(map[int]bool, len(holders))
		recorded := make([]ckptstore.Holder, 0, len(holders))
		if ec.Enabled() {
			shards, err := ckptstore.Encode(ec, ob)
			if err != nil {
				panic(fmt.Errorf("sam: erasure-encode %v: %w", o.name, err))
			}
			for i, h := range holders {
				hs[h] = true
				w := &wire{
					Kind: kCkptCopy, Name: uint64(o.name), Body: shards[i], Seq: seq,
					Inactive: o.nonrepro, Meta: o.ckptMeta, HasMeta: true, Owner: owner,
					Shard: i + 1, ShardK: ec.K, ShardM: ec.M, FrameLen: len(ob),
				}
				p.txSend(h, w, o.nonrepro)
				p.st.ReplicaObjects.Add(1)
				p.st.ReplicaBytes.Add(int64(len(shards[i])))
				recorded = append(recorded, ckptstore.Holder{Rank: h, Shard: i + 1})
			}
			// Shards are not usable data, so step 4's "already sent as a
			// checkpoint copy" dedup must not apply: copyHolders stays
			// unset for this object.
		} else {
			for _, h := range holders {
				hs[h] = true
				w := &wire{
					Kind: kCkptCopy, Name: uint64(o.name), Body: ob, Seq: seq,
					Inactive: o.nonrepro, Meta: o.ckptMeta, HasMeta: true, Owner: owner,
				}
				p.txSend(h, w, o.nonrepro)
				p.st.ReplicaObjects.Add(1)
				p.st.ReplicaBytes.Add(int64(len(ob)))
				recorded = append(recorded, ckptstore.Holder{Rank: h})
			}
			copyHolders[o.name] = hs
		}
		// Stale holders from a previous placement drop their copies at
		// commit (dropping earlier could destroy the only backup if this
		// transaction aborts).
		for _, old := range p.store.HolderRanks(uint64(o.name)) {
			if !hs[old] {
				tx.staleFrees = append(tx.staleFrees, txPiece{rank: old, w: &wire{Kind: kFreeCkpt, Name: uint64(o.name), Seq: seq}})
			}
		}
		if isMigrating {
			// The ledger entry travels to the new owner on the kAccData
			// wire (step 4); ours is dropped when the migration commits.
			tx.migrHolders[o.name] = recorded
		} else {
			p.store.Record(uint64(o.name), seq, recorded)
		}
		tx.dirtyAt[o.name] = o.dirtySeq
	}

	// Step 4: execute the sends that caused the checkpoint, inactive.
	for _, t := range trigs {
		switch t.kind {
		case 0:
			// Bare checkpoint (initial or forced): nothing to send.
		case kValData, kPush:
			o := p.objs[t.name]
			if o == nil || !o.created {
				continue
			}
			if copyHolders[t.name][t.target] {
				// Already sent to that process as a checkpoint copy; the
				// activation will make it usable there (§4.4).
				p.st.ObjectSends.Add(1)
				p.st.CkptCausingSends.Add(1)
				continue
			}
			ob := p.packObject(o)
			p.st.ObjectSends.Add(1)
			p.st.CkptCausingSends.Add(1)
			w := &wire{Kind: t.kind, Name: uint64(t.name), Body: ob, Inactive: true, Seq: seq, Target: t.target}
			p.txSend(t.target, w, true)
		case kAccData:
			o := p.objs[t.name]
			if o == nil || !o.isMain {
				continue
			}
			ob := o.ckptBytes // packed above (accums are always dirty pre-migration)
			if ob == nil {
				ob = p.packObject(o)
			}
			p.st.ObjectSends.Add(1)
			p.st.CkptCausingSends.Add(1)
			w := &wire{
				Kind: kAccData, Name: uint64(t.name), Body: ob, Inactive: true, Seq: seq,
				Target: t.target, Meta: o.meta(), HasMeta: true,
				Holders: packHolders(tx.migrHolders[t.name]),
			}
			p.txSend(t.target, w, true)
			o.pendingMove = t.target // block further local locks until commit
			tx.migrations = append(tx.migrations, txMigration{name: t.name, target: t.target})
		case kAccSnap:
			o := p.objs[t.name]
			if o == nil || !o.isMain {
				continue
			}
			ob := p.packObject(o)
			p.st.ObjectSends.Add(1)
			p.st.CkptCausingSends.Add(1)
			w := &wire{Kind: kAccSnap, Name: uint64(t.name), Body: ob, Inactive: true, Seq: seq}
			p.txSend(t.target, w, true)
		}
	}

	if tx.acksNeeded == 0 {
		p.commitTx()
	}
}

// txSend transmits a transaction piece, recording it for possible
// re-send if the recipient fails before acking. Pieces needing acks are
// numbered so a duplicate ack (after a re-send) cannot be double-counted.
func (p *Proc) txSend(rank int, w *wire, ackNeeded bool) {
	w.Piece = -1
	if ackNeeded {
		w.Piece = len(p.tx.pieces)
		p.tx.acksNeeded++
		if w.Inactive {
			p.tx.inactive[rank] = true
		}
	}
	p.tx.pieces = append(p.tx.pieces, txPiece{rank: rank, w: w, ackNeeded: ackNeeded})
	p.send(rank, w)
}

// buildPrivateState assembles the §4.2 record. Accumulators migrating in
// this transaction are excluded from the owned set: the checkpoint
// represents the state after the triggering sends.
func (p *Proc) buildPrivateState(seq int64, migrating map[Name]int) *ft.PrivateState {
	t, _, d := p.clocks.Snapshot()
	c := append([]int64(nil), t...)
	c[p.cfg.Rank] = seq
	priv := &ft.PrivateState{
		Rank:      p.cfg.Rank,
		Seq:       seq,
		StepsDone: p.stepsDone,
		AppState:  append([]byte(nil), p.boundarySnap...),
		T:         t, C: c, D: d,
	}
	for _, o := range p.objs {
		if o.isMain && o.created && o.state == stPresent {
			if _, ok := migrating[o.name]; ok {
				continue
			}
			priv.Owned = append(priv.Owned, o.meta())
		}
	}
	return priv
}

// commitTx completes the transaction: clocks advance, taint clears,
// ownership transfers finalize, activations go out, and deferred work
// resumes.
func (p *Proc) commitTx() {
	tx := p.tx
	p.clocks.CommitCheckpoint()
	p.taint.OnCheckpoint()
	p.hasCheckpointed = true
	p.st.Checkpoints.Add(1)
	if tx.forced {
		p.st.ForcedCheckpoints.Add(1)
	}
	if p.rec != nil {
		note := ""
		if tx.forced {
			note = "forced"
		}
		t, c, d := p.clocks.Snapshot()
		p.emit(trace.Event{
			Kind: trace.SamCkptCommit, Aux: tx.seq, Note: note,
			T: trace.CopyVec(t), C: trace.CopyVec(c), D: trace.CopyVec(d),
		})
	}

	for name, seqAt := range tx.dirtyAt {
		if o := p.objs[name]; o != nil && o.dirtySeq == seqAt {
			o.dirty = false
		}
	}
	for _, m := range tx.migrations {
		p.store.Forget(uint64(m.name))
		if o := p.objs[m.name]; o != nil && o.isMain {
			o.isMain = false
			o.accLocked = false
			o.dirty = false
			o.pendingMove = -1
			o.migrationQueued = false
			o.ownerRank = m.target
			o.invalidatePackCache() // ownership left: the new owner packs from here on
			p.send(p.home(m.name), &wire{Kind: kAccOwner, Name: uint64(m.name), Target: m.target})
		}
	}
	for _, r := range sortedKeys(tx.inactive) {
		p.send(r, &wire{Kind: kActivate, Seq: tx.seq})
	}
	for _, sf := range tx.staleFrees {
		p.send(sf.rank, sf.w)
	}

	// Answer force-checkpoint requests now covered by this checkpoint.
	reqs := p.forceReplies
	p.forceReplies = nil
	for _, fr := range reqs {
		p.send(fr.origin, &wire{Kind: kForceAck, Name: uint64(fr.name), F: fr.f})
	}

	p.tx = nil
	p.releaseGate()

	// Replay messages deferred during the transaction.
	msgs := p.deferredMsgs
	p.deferredMsgs = nil
	for _, w := range msgs {
		p.dispatch(w)
	}

	p.retryFrees()
	// Coverage repairs deferred while this transaction was open (its
	// images were provisional) can proceed against the committed state.
	p.repairCoverage()
	p.maybeStartTx()
}

// ---- freeable main copies (§4.3) ----

// markFreeable transitions an owned object to freeable: all declared
// accesses have occurred. A pending rename is served immediately (the
// storage is logically handed over); the entry itself is retained until
// every process has checkpointed since its last access.
func (p *Proc) markFreeable(o *object) {
	o.freeable = true
	if o.renameWaiter != nil {
		c := o.renameWaiter
		o.renameWaiter = nil
		p.completeRename(o, c)
	}
	if !p.ftEnabled() {
		if o.pins == 0 {
			delete(p.objs, o.name)
		}
		// A pinned entry is removed when its last accessor ends.
		return
	}
	o.freeableAt = p.clocks.Tick()
	p.freePending[o.name] = true
	if !p.cfg.LazyFree {
		// Eager ablation: round-trip to every other process immediately.
		for j := 0; j < p.cfg.N; j++ {
			if j == p.cfg.Rank {
				continue
			}
			p.st.ForceCkptMsgsSent.Add(1)
			if p.rec != nil {
				p.emit(trace.Event{Kind: trace.SamForceSend, Dst: int64(j), Name: uint64(o.name), Aux: o.freeableAt})
			}
			p.send(j, &wire{Kind: kForceCkpt, Name: uint64(o.name), F: o.freeableAt})
		}
		o.forcedSent = true
		if !p.clocks.SelfCovered(o.freeableAt) {
			p.addTrigger(trigger{kind: 0})
		}
	}
	p.retryFrees()
}

// retryFrees attempts to reclaim freeable main copies. Under lazy freeing
// the piggybacked D vector usually proves coverage without any extra
// messages; force-checkpoints go out only when the backlog exceeds the
// modeled cache pressure threshold.
func (p *Proc) retryFrees() {
	if len(p.freePending) == 0 {
		return
	}
	var freed []Name
	for _, name := range sortedKeys(p.freePending) {
		o := p.objs[name]
		if o == nil {
			freed = append(freed, name)
			continue
		}
		if o.pins == 0 && p.clocks.SelfCovered(o.freeableAt) && len(p.clocks.Laggards(o.freeableAt)) == 0 {
			p.doFree(o)
			freed = append(freed, name)
		}
	}
	for _, n := range freed {
		delete(p.freePending, n)
	}
	if p.cfg.LazyFree && len(p.freePending) > maxFreeBacklog {
		p.forceOldestFrees()
	}
}

// forceOldestFrees sends force-checkpoint messages for backlogged
// freeable objects (modeled cache replacement).
func (p *Proc) forceOldestFrees() {
	for _, name := range sortedKeys(p.freePending) {
		o := p.objs[name]
		if o == nil || o.forcedSent {
			continue
		}
		o.forcedSent = true
		for _, j := range p.clocks.Laggards(o.freeableAt) {
			p.st.ForceCkptMsgsSent.Add(1)
			if p.rec != nil {
				p.emit(trace.Event{Kind: trace.SamForceSend, Dst: int64(j), Name: uint64(name), Aux: o.freeableAt})
			}
			p.send(j, &wire{Kind: kForceCkpt, Name: uint64(name), F: o.freeableAt})
		}
		if !p.clocks.SelfCovered(o.freeableAt) {
			p.addTrigger(trigger{kind: 0})
		}
	}
}

// doFree reclaims a freeable main copy and tells checkpoint-copy holders
// to drop theirs ("the checkpoint copy can only be freed when the main
// copy is finally freed").
func (p *Proc) doFree(o *object) {
	delete(p.objs, o.name)
	delete(p.repairPending, o.name)
	p.clocks.Tick()
	for _, h := range p.store.HolderRanks(uint64(o.name)) {
		p.send(h, &wire{Kind: kFreeCkpt, Name: uint64(o.name), Seq: o.ckptSeq})
	}
	p.store.Forget(uint64(o.name))
}

// ---- message handlers ----

func (p *Proc) onCkptPriv(w *wire) {
	r := w.SrcRank
	if w.Inactive {
		// Provisional: promoted to the committed store by the activation.
		// If the checkpointer dies first, kRecovery drops it and the
		// previous committed state remains authoritative.
		p.privStaging[r] = w
	} else if w.Seq >= p.privStoreSeq[r] {
		// Out-of-transaction re-replication (recovery path): committed.
		p.privStore[r] = w.Body
		p.privStoreSeq[r] = w.Seq
	}
	p.ackPiece(w)
}

// ackPiece acknowledges an ack-requiring transaction piece. Receiving and
// acknowledging checkpoint data is never deferred, even while this
// process runs its own checkpoint (§4.4 allows it), which keeps
// concurrent transactions deadlock-free.
func (p *Proc) ackPiece(w *wire) {
	if w.Piece < 0 {
		return
	}
	p.send(w.SrcRank, &wire{Kind: kCkptAck, Seq: w.Seq, Target: w.Piece})
}

func (p *Proc) onCkptCopy(w *wire) {
	if w.Shard > 0 {
		p.onCkptShard(w)
		return
	}
	name := Name(w.Name)
	o := p.obj(name)
	if w.HasMeta && ft.ObjKind(w.Meta.Kind) == ft.KindAccum {
	}
	// Accept unless we hold the main copy *and* the copy backs our own
	// ownership (then our live object is authoritative). A copy naming a
	// different owner is accepted even while we are still the owner: it
	// arises when our own transaction migrates the object away and the
	// placement lands back on us as the old owner.
	if !o.isMain || w.Owner != p.cfg.Rank {
		// Accept a strictly newer object version; fall back to the
		// owner/sender-time rule for versionless (value) copies.
		accept := o.copyData == nil
		if !accept && w.HasMeta {
			accept = w.Meta.Version >= o.savedMeta.Version
		}
		if !accept {
			accept = w.Owner != o.copyOwner || w.Seq >= o.copySeq
		}
		if accept {
			if w.Inactive {
				o.pendingCopy = w
			} else {
				p.applyCkptCopy(o, w)
			}
		}
	}
	if w.Inactive {
		p.ackPiece(w)
	}
}

// onCkptShard handles an erasure-coded checkpoint piece: same acceptance
// protocol as a full copy (including two-phase inactive/activate), but
// the stored bytes are one Reed–Solomon shard of the owner's frame, not
// a usable image.
func (p *Proc) onCkptShard(w *wire) {
	name := Name(w.Name)
	o := p.obj(name)
	if !o.isMain || w.Owner != p.cfg.Rank {
		// A shard never carries usable data, so the acceptance rule keys
		// on whether any backing copy exists rather than copyData.
		accept := !o.ckptCopy
		if !accept && w.HasMeta {
			accept = w.Meta.Version >= o.savedMeta.Version
		}
		if !accept {
			accept = w.Owner != o.copyOwner || w.Seq >= o.copySeq
		}
		if accept {
			if w.Inactive {
				o.pendingCopy = w
			} else {
				p.applyCkptShard(o, w)
			}
		}
	}
	if w.Inactive {
		p.ackPiece(w)
	}
}

// applyCkptShard installs an erasure shard as the backing checkpoint
// copy. Unlike a full copy it is opaque: it never populates the cache
// (copyData stays nil, o.data untouched) and only participates in
// recovery reassembly.
func (p *Proc) applyCkptShard(o *object, w *wire) {
	o.ckptCopy = true
	o.copyOwner = w.Owner
	o.copySeq = w.Seq
	o.copyData = nil
	o.copyBytes = w.Body
	o.shardIdx, o.shardK, o.shardM, o.frameLen = w.Shard, w.ShardK, w.ShardM, w.FrameLen
	if w.HasMeta {
		o.savedMeta = w.Meta
		o.kind = ft.ObjKind(w.Meta.Kind)
	}
}

// applyCkptCopy installs a checkpoint copy. The copy lives in the cache
// and is usable for local reads like any cached data — the paper's core
// efficiency argument.
func (p *Proc) applyCkptCopy(o *object, w *wire) {
	data, err := codec.Unpack(w.Body)
	if err != nil {
		return
	}
	o.ckptCopy = true
	o.copyOwner = w.Owner
	o.copySeq = w.Seq
	o.copyData = data
	o.copyBytes = w.Body
	o.shardIdx, o.shardK, o.shardM, o.frameLen = 0, 0, 0, 0
	o.invalidatePackCache() // contents now come from the owner's frame
	if w.HasMeta {
		o.savedMeta = w.Meta
		o.kind = ft.ObjKind(w.Meta.Kind)
	}
	// Make it usable as a cached copy when we do not hold newer local
	// contents (values are immutable; accumulator copies are as fresh as
	// the owner's last checkpoint — exactly a "recent version"). An
	// accumulator copy must not wake a parked UpdateAccum, though: only
	// the migrated main copy grants the lock.
	if !o.isMain && !o.usable() {
		o.data = data
		o.state = stPresent
		o.ownerRank = w.Owner
		p.touch(o)
		p.serveLocalWaiters(o)
	}
}

func (p *Proc) onCkptAck(w *wire) {
	tx := p.tx
	if tx == nil || w.Seq != tx.seq {
		return
	}
	i := int(w.Target) // acks echo the piece number in Target
	if i < 0 || i >= len(tx.pieces) {
		return
	}
	pc := &tx.pieces[i]
	if !pc.ackNeeded || pc.acked {
		return
	}
	pc.acked = true
	tx.acksNeeded--
	if tx.acksNeeded == 0 {
		p.commitTx()
	}
}

func (p *Proc) onActivate(w *wire) {
	// Promote a provisional private state from this checkpointer.
	if st := p.privStaging[w.SrcRank]; st != nil && st.Seq == w.Seq {
		delete(p.privStaging, w.SrcRank)
		if st.Seq >= p.privStoreSeq[w.SrcRank] {
			p.privStore[w.SrcRank] = st.Body
			p.privStoreSeq[w.SrcRank] = st.Seq
		}
	}
	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		if o.state == stInactive && o.inactiveFrom == w.SrcRank && o.inactiveSeq == w.Seq {
			o.state = stPresent
			o.fetchOutstanding = false
			if o.kind == ft.KindAccum {
			}
			p.serveLocalWaiters(o) // grants a parked local acquire first
			p.serveRemoteWaiters(o)
			if o.kind == ft.KindAccum && o.isMain {
				p.tryMigrate(o)
			}
		}
		if o.pendingCopy != nil && o.pendingCopy.SrcRank == w.SrcRank && o.pendingCopy.Seq == w.Seq {
			pc := o.pendingCopy
			o.pendingCopy = nil
			if pc.Shard > 0 {
				p.applyCkptShard(o, pc)
			} else {
				p.applyCkptCopy(o, pc)
			}
		}
	}
	p.evictIfNeeded()
}

func (p *Proc) onForceCkpt(w *wire) {
	if p.clocks.NeedsForcedCheckpoint(w.SrcRank, w.F) {
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamForceRecv, Src: int64(w.SrcRank), Name: w.Name, Aux: w.F, Note: "ckpt"})
		}
		p.forceReplies = append(p.forceReplies, forceReq{origin: w.SrcRank, name: Name(w.Name), f: w.F})
		p.addForcedTrigger()
		return
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamForceRecv, Src: int64(w.SrcRank), Name: w.Name, Aux: w.F, Note: "covered"})
	}
	p.send(w.SrcRank, &wire{Kind: kForceAck, Name: w.Name, F: w.F})
}

// addForcedTrigger queues a bare checkpoint marked as forced.
func (p *Proc) addForcedTrigger() {
	if p.tx != nil {
		// The open transaction will cover the requested time at commit.
		p.tx.forced = true
		return
	}
	p.pendingForced = true
	p.addTrigger(trigger{kind: 0})
}

func (p *Proc) onForceAck(w *wire) {
	// The stamp absorbed in dispatch carried the sender's fresh c value;
	// retryFrees re-evaluates coverage.
	p.retryFrees()
}

func (p *Proc) onFreeCkpt(w *wire) {
	o := p.objs[Name(w.Name)]
	if o == nil || !o.ckptCopy {
		return
	}
	o.ckptCopy = false
	o.copyData = nil
	o.copyBytes = nil
	o.pendingCopy = nil
	o.shardIdx, o.shardK, o.shardM, o.frameLen = 0, 0, 0, 0
	// If the entry is nothing but the dropped copy, remove it entirely;
	// if it also serves as a cached copy, the cache keeps it until LRU
	// eviction, like any other cached object.
	if !o.isMain && o.pins == 0 && len(o.waiters) == 0 {
		delete(p.objs, Name(w.Name))
	}
}
