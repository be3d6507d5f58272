package sam

import (
	"samft/internal/ft"
)

// objState tracks a local object entry's lifecycle.
type objState uint8

const (
	// stAbsent: placeholder created while a fetch is outstanding.
	stAbsent objState = iota
	// stPresent: contents available locally (main copy or cached copy).
	stPresent
	// stInactive: contents received as part of an uncommitted checkpoint
	// transaction; unusable until the kActivate arrives.
	stInactive
)

// object is one entry in a process's shared-object table: the main copy
// if this process is the owner, a cached copy, a checkpoint copy held for
// another process, or a placeholder awaiting data. An object may be both
// a cached copy for local use and a checkpoint copy (the paper's central
// trick: replicas live in the cache and serve hits).
type object struct {
	name Name
	kind ft.ObjKind
	data interface{} // decoded contents; nil while stAbsent

	state  objState
	isMain bool // this process currently owns the main copy

	// created is set once a value's EndCreate has run (main copies only);
	// a main value entry can exist uncreated when remote requests queued
	// up before the local creation (e.g. after a recovery replay).
	created bool

	// nonrepro marks contents that depend on a non-reexecutable
	// operation; dirty marks contents not yet covered by a committed
	// checkpoint. A send of a nonrepro&&dirty object must checkpoint
	// first (§4.1); once covered, recovery restores the exact contents so
	// further sends are free.
	nonrepro bool
	dirty    bool

	// Access accounting (owner side).
	accessesDeclared int64 // Unlimited (0) = explicit free
	accessesDone     int64
	freeable         bool
	freeableAt       int64 // owner's virtual time at the freeable mark
	frozen           bool  // renamed away: retained only for recovery

	// Consumer side: local uses not yet reported to the owner.
	unreportedUses int64

	// pins counts active UseValue accessors (local).
	pins int

	// Accumulator state (owner side).
	accLocked       bool  // application holds the update lock
	accSnapSeq      int64 // bump on each update; versions snapshots
	pendingMove     int   // rank to migrate to when quiescent, -1 if none
	migrationQueued bool  // a migration trigger is queued/in a transaction

	// ckptCopy entries: replica held on behalf of copyOwner. copyBytes is
	// the owner's packed frame, retained verbatim so recovery restores the
	// exact checkpointed image; copyData is the decoded form, which also
	// serves local cache hits.
	ckptCopy  bool
	ownerRank int // for cached entries: last known owner
	copyOwner int
	copySeq   int64 // checkpoint seq of the copy (newest wins per owner)
	copyData  interface{}
	copyBytes []byte
	savedMeta ft.ObjectMeta
	// pendingCopy holds an inactive checkpoint copy until its activation.
	pendingCopy *wire
	// inactiveFrom groups inactive data by (srcRank, seq) for activation.
	inactiveFrom int
	inactiveSeq  int64

	// forcedSent records that force-checkpoint messages for this freeable
	// object have been sent (at most once per object).
	forcedSent bool

	// pendingGrants are migration targets received before this process's
	// main copy was restored by recovery.
	pendingGrants []int

	// waiters are application commands parked until this object becomes
	// usable locally.
	waiters []*cmd
	// remoteWaiters are ranks whose fetch requests arrived before the
	// value was (re)created here.
	remoteWaiters []int

	// fetchOutstanding marks an issued fetch/acquire request; used to
	// avoid duplicates and to re-issue after an owner's failure. reqKind
	// records which request to re-issue (kValReq, kAccAcq, kAccSnapReq).
	fetchOutstanding bool
	reqKind          int

	// renameWaiter is an application RenameValue command blocked until
	// this value becomes freeable.
	renameWaiter *cmd

	// dirtySeq increments on every mutation; a checkpoint transaction
	// clears dirty only if no mutation happened while it was in flight.
	dirtySeq int64

	// version counts mutations over the object's whole lifetime and
	// migrates with it; copies are ordered by it (see ft.ObjectMeta).
	version int64

	// ckptBytes/ckptMeta/ckptSeq retain the object exactly as of the last
	// committed checkpoint, so a lost checkpoint copy can be re-sent
	// without leaking uncovered mutations (accumulators mutate in place;
	// values are immutable and skip the byte retention).
	ckptBytes []byte
	ckptMeta  ft.ObjectMeta
	ckptSeq   int64

	// Erasure-shard bookkeeping for ckptCopy entries: shardIdx is the
	// 1-based Reed–Solomon shard this process holds (0 = a full frame),
	// cut as (shardK, shardM) over a packed frame of frameLen bytes. A
	// shard is not usable data — it only participates in recovery
	// reassembly — so shard copies never install into the cache.
	shardIdx int
	shardK   int
	shardM   int
	frameLen int

	// packCache is the version-keyed snapshot cache: the packed frame of
	// data as of mutation sequence packCacheSeq. While the object is
	// unmutated (dirtySeq unchanged), checkpoint copies, fetch replies, and
	// snapshots reuse these bytes instead of re-walking the object — the
	// dominant cost of the checkpoint hot path. The cache is invalidated
	// explicitly wherever data is replaced wholesale (migration arrival,
	// recovery restore) and implicitly by any dirtySeq bump.
	packCache    []byte
	packCacheSeq int64

	// lru is a monotonically increasing touch counter for eviction.
	lru int64
}

// usable reports whether the local contents can satisfy an access.
func (o *object) usable() bool { return o.state == stPresent && o.data != nil }

// invalidatePackCache drops the cached packed frame. Callers invoke it
// when the object's contents are replaced (rather than mutated under
// dirtySeq) or when ownership leaves this process.
func (o *object) invalidatePackCache() {
	o.packCache = nil
	o.packCacheSeq = 0
}

// meta builds the checkpoint metadata record for an owned object.
func (o *object) meta() ft.ObjectMeta {
	return ft.ObjectMeta{
		Name:             uint64(o.name),
		Kind:             uint8(o.kind),
		Nonreproducible:  o.nonrepro,
		AccessesDeclared: o.accessesDeclared,
		AccessesDone:     o.accessesDone,
		Freeable:         o.freeable,
		FreeableAt:       o.freeableAt,
		Version:          o.version,
	}
}

// applyMeta restores owner-side metadata from a checkpoint record.
func (o *object) applyMeta(m ft.ObjectMeta) {
	o.kind = ft.ObjKind(m.Kind)
	o.nonrepro = m.Nonreproducible
	o.accessesDeclared = m.AccessesDeclared
	o.accessesDone = m.AccessesDone
	o.freeable = m.Freeable
	o.freeableAt = m.FreeableAt
	o.version = m.Version
}

// dirEntry is the directory record a name's home process keeps: where the
// main copy lives and who is waiting for it.
type dirEntry struct {
	name  Name
	kind  ft.ObjKind
	known bool // owner is known
	owner int  // rank of the current owner

	// pendingFetch are ranks whose kValReq arrived before registration.
	pendingFetch []int
	// pendingSnap are ranks whose chaotic-read request arrived before
	// registration.
	pendingSnap []int

	// Accumulator arbitration: FIFO of ranks waiting for the lock, and
	// whether a migration grant is outstanding.
	acqQueue        []int
	grantInFlight   bool
	grantTarget     int
	pendingSnapsFwd []int
}

func (d *dirEntry) enqueueAcq(rank int) {
	for _, r := range d.acqQueue {
		if r == rank {
			return // duplicate request (replay); queue membership is idempotent
		}
	}
	d.acqQueue = append(d.acqQueue, rank)
}

func (d *dirEntry) enqueueFetch(rank int) {
	for _, r := range d.pendingFetch {
		if r == rank {
			return
		}
	}
	d.pendingFetch = append(d.pendingFetch, rank)
}

func (d *dirEntry) enqueueSnap(rank int) {
	for _, r := range d.pendingSnap {
		if r == rank {
			return
		}
	}
	d.pendingSnap = append(d.pendingSnap, rank)
}
