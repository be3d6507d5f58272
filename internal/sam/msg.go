package sam

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/pvm"
)

// TagSAM is the PVM message tag carrying all SAM protocol traffic.
const TagSAM = pvm.TagUserBase + 1

// Message kinds. One wire struct carries every kind; unused fields stay at
// their zero values (the codec encodes them compactly enough for a
// simulation, and a single self-describing struct keeps the protocol
// readable).
const (
	// Values.
	kValReg     = iota + 1 // creator -> home: value exists, owner = SrcRank
	kValReq                // requester -> home: locate and fetch a value
	kValReqFwd             // home -> owner: forward of kValReq (Target = requester)
	kValData               // owner -> requester: value contents
	kValUsed               // consumer -> owner: batched use counts (Names/Counts)
	kValFree               // owner -> cached-copy holders: drop your copy (eager-free ablation)
	kValFreeAck            // reply to kValFree

	// Accumulators.
	kAccReg     // creator -> home: accumulator exists, owner = SrcRank
	kAccAcq     // requester -> home: request mutual exclusion + migration
	kAccGrant   // home -> current owner: migrate accumulator to Target
	kAccData    // old owner -> new owner: accumulator contents (ownership transfer)
	kAccOwner   // old owner -> home: ownership moved to Target
	kAccSnapReq // requester -> home: chaotic read snapshot request
	kAccSnapFwd // home -> owner: forward of kAccSnapReq
	kAccSnap    // owner -> requester: snapshot of accumulator contents

	// Push.
	kPush // owner -> Target: unsolicited value copy

	// Checkpointing (§4.4).
	kCkptPriv  // checkpointer -> designated: private state (ack required)
	kCkptCopy  // checkpointer -> designated: object checkpoint copy
	kCkptAck   // designated -> checkpointer: ack for priv state / inactive copy
	kActivate  // checkpointer -> recipients: commit, activate Seq's objects
	kForceCkpt // owner -> laggard: checkpoint so I can free (F = freeable time)
	kForceAck  // laggard -> owner: done (stamp carries the new c value)
	kFreeCkpt  // owner -> checkpoint-copy holder: copy can be dropped

	// Failure handling (§4.5).
	kFailed      // any -> coordinator: rank T appears dead
	kRecovery    // coordinator -> all: rank T restarts as tid NewTID
	kRecoverPriv // priv-state holder -> new process: latest private state
	kRecoverData // ckpt-copy holder -> new process: object main copy restoration
	kDirReport   // object owner -> new process: directory info for names homed there
	kOwnerReport // surviving home -> new process: you own this object (authoritative)
	kOwnerHint   // previous holder -> new process: a migration sent this object to you (version-stamped)
	kRecoverFin  // survivor -> new process: my recovery contribution is complete
	kRecoverReq  // new process -> all: rank Target restarted as NewTID; (re)send your contribution
	kOwnerQuery  // new process -> home: do I own this hinted object? (version-stamped)
	kOwnerDeny   // home -> new process: you do not own the queried object; drop the hint
)

func kindName(k int) string {
	names := map[int]string{
		kValReg: "ValReg", kValReq: "ValReq", kValReqFwd: "ValReqFwd",
		kValData: "ValData", kValUsed: "ValUsed", kValFree: "ValFree",
		kValFreeAck: "ValFreeAck",
		kAccReg:     "AccReg", kAccAcq: "AccAcq", kAccGrant: "AccGrant",
		kAccData: "AccData", kAccOwner: "AccOwner", kAccSnapReq: "AccSnapReq",
		kAccSnapFwd: "AccSnapFwd", kAccSnap: "AccSnap",
		kPush:     "Push",
		kCkptPriv: "CkptPriv", kCkptCopy: "CkptCopy", kCkptAck: "CkptAck",
		kActivate: "Activate", kForceCkpt: "ForceCkpt", kForceAck: "ForceAck",
		kFreeCkpt: "FreeCkpt",
		kFailed:   "Failed", kRecovery: "Recovery", kRecoverPriv: "RecoverPriv",
		kRecoverData: "RecoverData", kDirReport: "DirReport",
		kOwnerReport: "OwnerReport", kOwnerHint: "OwnerHint", kRecoverFin: "RecoverFin",
		kRecoverReq: "RecoverReq",
		kOwnerQuery: "OwnerQuery", kOwnerDeny: "OwnerDeny",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return "?"
}

// wire is the single SAM protocol message. Every message piggybacks the
// sender's virtual-time stamp (§4.3) so the D vectors stay current without
// dedicated traffic.
type wire struct {
	Kind    int
	SrcRank int
	// Name identifies the object the message concerns.
	Name uint64
	// Target is a rank parameter: the requester in forwards, the new
	// owner in migrations, the failed/restarted rank in recovery.
	Target int
	// NewTID carries the restarted process's task id in kRecovery.
	NewTID int
	// Body is a nested codec frame holding object contents or a
	// private-state record.
	Body []byte
	// Seq identifies a checkpoint transaction (the checkpointer's virtual
	// time) or an object copy's freshness.
	Seq int64
	// Piece numbers an ack-requiring transaction piece; acks echo it so a
	// re-sent piece (after a recipient failure) cannot be double-counted.
	// -1 marks out-of-transaction copies that need no ack bookkeeping.
	Piece int
	// Inactive marks data that must not be used until the matching
	// kActivate arrives (§4.4).
	Inactive bool
	// F is the freeable-mark time in force-checkpoint messages.
	F int64
	// Meta carries object metadata alongside checkpoint/recovery copies.
	Meta ft.ObjectMeta
	// HasMeta distinguishes a zero Meta from an absent one.
	HasMeta bool
	// Owner is the rank that owns the main copy a kCkptCopy backs. It is
	// normally the sender, but a checkpoint copy sent for an accumulator
	// being migrated in the same transaction names the *new* owner, so
	// the copy restores to the right process after a failure.
	Owner int
	// Names/Counts carry batched use reports (kValUsed).
	Names  []uint64
	Counts []int64
	// Fresh marks a kRecoverPriv that carries no state: the failed rank
	// had never checkpointed and must restart from Init.
	Fresh bool
	// Erasure-coded checkpoint copies (kCkptCopy/kRecoverData): Shard is
	// the 1-based shard index Body holds (0 = full frame), cut as
	// (ShardK, ShardM) Reed–Solomon over a packed frame of FrameLen
	// bytes.
	Shard    int
	ShardK   int
	ShardM   int
	FrameLen int
	// Holders carries a packed coverage-ledger entry on kAccData
	// migrations: the checkpoint-copy holders the sender placed for the
	// new owner (rank<<16 | shard). The receiver cannot recompute it:
	// after a repair the holder set is no longer the ring set, and the
	// erasure shard index each holder keeps no longer follows from its
	// ring position. So the holder set travels with the ownership
	// transfer.
	Holders []int64
	// Stamp piggyback (§4.3), delta-encoded (ft.DeltaStamp). HasStamp
	// gates absorption: a stamp may legitimately carry no entries (nothing
	// changed since the last message to this destination). StampT is the
	// full T vector — sent on first contact with the destination and after
	// its incarnation changes — otherwise StampIdx/StampVal carry only the
	// entries that changed since the previous stamp to the destination.
	HasStamp bool
	StampT   []int64
	StampIdx []int64
	StampVal []int64
	StampC   int64
}

func init() {
	codec.Register("sam.wire", wire{})
	codec.Register(ft.RegisteredName, ft.PrivateState{})
}

// encodeWire packs a wire message, attaching the sender's stamp for dst.
func (p *Proc) encodeWire(w *wire, dstRank int) []byte {
	w.SrcRank = p.cfg.Rank
	if p.cfg.Policy != 0 { // any FT policy: piggyback clocks
		st := p.clocks.DeltaStampFor(dstRank)
		w.HasStamp = true
		w.StampT = st.Full
		w.StampIdx = st.Idx
		w.StampVal = st.Val
		w.StampC = st.CForDst
	}
	b, err := codec.Pack(w)
	if err != nil {
		panic(fmt.Errorf("sam: encode %s: %w", kindName(w.Kind), err))
	}
	return b
}

func decodeWire(payload []byte) (*wire, error) {
	v, err := codec.Unpack(payload)
	if err != nil {
		return nil, err
	}
	w, ok := v.(*wire)
	if !ok {
		return nil, fmt.Errorf("sam: unexpected message type %T", v)
	}
	return w, nil
}
