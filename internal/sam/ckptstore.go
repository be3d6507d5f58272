package sam

// Glue between the SAM runtime and the internal/ckptstore subsystem:
// erasure shard encode / reassembly, the packed ledger entries that ride kAccData migrations,
// and the proactive coverage-repair pass that re-replicates checkpoint
// copies destroyed by failures (instead of letting redundancy decay until
// the next checkpoint refreshes it, as the paper's fixed placement did).

import (
	"fmt"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// packHolders / unpackHolders encode a ledger holder set for the wire
// (kAccData migrations) as rank<<16 | shard.
func packHolders(hs []ckptstore.Holder) []int64 {
	if len(hs) == 0 {
		return nil
	}
	out := make([]int64, len(hs))
	for i, h := range hs {
		out[i] = int64(h.Rank)<<16 | int64(h.Shard&0xffff)
	}
	return out
}

func unpackHolders(packed []int64) []ckptstore.Holder {
	if len(packed) == 0 {
		return nil
	}
	out := make([]ckptstore.Holder, len(packed))
	for i, v := range packed {
		out[i] = ckptstore.Holder{Rank: int(v >> 16), Shard: int(v & 0xffff)}
	}
	return out
}

// ckptImage returns the committed checkpoint frame of an owned object for
// out-of-transaction re-replication: the frozen accumulator image, or a
// repack of a clean value (values are immutable, so the current contents
// equal the checkpointed image). nil when no covered image exists.
func (p *Proc) ckptImage(o *object) []byte {
	body := o.ckptBytes
	if body == nil && !o.dirty && o.kind == ft.KindValue {
		if b, err := codec.Pack(o.data); err == nil {
			body = b
		}
	}
	return body
}

// holderAt records one recovery contribution: the shard (0 = full frame)
// a rank supplied, at which checkpoint seq.
type holderAt struct {
	shard int
	seq   int64
}

// noteRecoverContrib records a kRecoverData contributor so the rebuilt
// ledger reflects the holders that actually exist.
func (p *Proc) noteRecoverContrib(w *wire) {
	if w.SrcRank == p.cfg.Rank {
		return
	}
	name := Name(w.Name)
	m := p.recoverContrib[name]
	if m == nil {
		m = make(map[int]holderAt)
		p.recoverContrib[name] = m
	}
	if prev, ok := m[w.SrcRank]; !ok || w.Seq >= prev.seq {
		m[w.SrcRank] = holderAt{shard: w.Shard, seq: w.Seq}
	}
}

// takeRecoverHolders consumes the recorded contributors for name whose
// copies match the installed checkpoint seq, in rank order.
func (p *Proc) takeRecoverHolders(name Name, seq int64) []ckptstore.Holder {
	m := p.recoverContrib[name]
	delete(p.recoverContrib, name)
	var out []ckptstore.Holder
	for _, r := range sortedKeys(m) {
		if h := m[r]; h.seq == seq {
			out = append(out, ckptstore.Holder{Rank: r, Shard: h.shard})
		}
	}
	return out
}

// shardAsm accumulates erasure shards of one object's kRecoverData until
// k of them permit a decode.
type shardAsm struct {
	seq      int64
	k, m     int
	frameLen int
	shards   map[int]*wire // 1-based shard index -> contribution
}

// assembleShards folds one erasure-coded kRecoverData shard into the
// per-object assembler. It returns a synthesized full-frame wire once k
// shards (all from the same checkpoint seq) decode, and nil while the
// object is still short — late duplicate shards after an install are
// dropped by the caller's recoverInstalled check, like full-frame
// duplicates.
func (p *Proc) assembleShards(w *wire) *wire {
	name := Name(w.Name)
	a := p.shardAsm[name]
	if a == nil || w.Seq > a.seq || a.k != w.ShardK || a.m != w.ShardM {
		a = &shardAsm{seq: w.Seq, k: w.ShardK, m: w.ShardM, frameLen: w.FrameLen, shards: make(map[int]*wire)}
		p.shardAsm[name] = a
	} else if w.Seq < a.seq {
		return nil // stale shard from an older checkpoint
	}
	if w.Shard < 1 || w.Shard > a.k+a.m {
		return nil
	}
	a.shards[w.Shard] = w
	if len(a.shards) < a.k {
		return nil
	}
	ec := ckptstore.ECParams{K: a.k, M: a.m}
	slots := make([][]byte, ec.Shards())
	var member *wire
	for _, idx := range sortedKeys(a.shards) {
		sw := a.shards[idx]
		slots[idx-1] = sw.Body
		if member == nil {
			member = sw
		}
	}
	frame, err := ckptstore.Decode(ec, slots, a.frameLen)
	if err != nil {
		return nil // impossible with k shards of one seq; wait for more
	}
	delete(p.shardAsm, name)
	fw := *member
	fw.Shard, fw.ShardK, fw.ShardM, fw.FrameLen = 0, 0, 0, 0
	fw.Body = frame
	return &fw
}

// repairCoverage drains the repair queue: for every owned object whose
// ledgered coverage fell below the store's target (holders died) or was
// just rebuilt from recovery contributions, it re-replicates the missing
// copies or shards out-of-transaction (Piece -1: committed on arrival,
// like the historic post-failure re-supply). Ranks that are dead and not
// yet replaced are skipped; DropRank re-queues the object when the
// replacement incarnation installs, so repair converges once the cluster
// is whole. While a checkpoint transaction is open the pass defers
// entirely (the queue is kept): the transaction's own pieces are re-sent
// to replacement incarnations and its images are not yet committed, so
// repairing mid-transaction would replicate provisional state — commitTx
// drains the queue instead. After planning, if no dead ranks remain and
// coverage is still short, the shortfall is recorded as an invariant
// violation for the chaos harness.
func (p *Proc) repairCoverage() {
	if !p.ftEnabled() || p.restore != nil || p.tx != nil || len(p.repairPending) == 0 {
		return
	}
	repaired := 0
	for _, name := range sortedKeys(p.repairPending) {
		delete(p.repairPending, name)
		o := p.objs[name]
		entry, ok := p.store.Lookup(uint64(name))
		if o == nil || !o.isMain || !o.created || !ok || o.ckptSeq == 0 || entry.Seq != o.ckptSeq {
			continue // freed, migrated away, or re-checkpointed since
		}
		plan := p.store.RepairPlan(uint64(name), p.cfg.Rank, func(r int) bool {
			_, dead := p.deadRanks[r]
			return dead
		})
		if len(plan) > 0 {
			if p.sendRepairs(o, plan) {
				repaired++
			}
		}
		if len(p.deadRanks) == 0 && !o.freeable && p.store.Coverage(uint64(name)) < p.store.Want() {
			p.repairViolations = append(p.repairViolations, fmt.Sprintf(
				"rank %d: object %v coverage %d < %d after repair (seq %d)",
				p.cfg.Rank, name, p.store.Coverage(uint64(name)), p.store.Want(), o.ckptSeq))
		}
	}
	if repaired > 0 && p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamRepairDone, Aux: int64(repaired)})
	}
}

// sendRepairs transmits the planned repair copies for one object and
// ledgers them. Reports whether anything was sent.
func (p *Proc) sendRepairs(o *object, plan []ckptstore.Holder) bool {
	body := p.ckptImage(o)
	if body == nil {
		return false
	}
	ec := p.store.EC()
	var shards [][]byte
	if ec.Enabled() {
		var err error
		shards, err = ckptstore.Encode(ec, body)
		if err != nil {
			return false
		}
	}
	for _, h := range plan {
		w := &wire{
			Kind: kCkptCopy, Name: uint64(o.name), Seq: o.ckptSeq,
			Meta: o.ckptMeta, HasMeta: true, Piece: -1, Owner: p.cfg.Rank,
		}
		note := ""
		if h.Shard > 0 {
			w.Body = shards[h.Shard-1]
			w.Shard, w.ShardK, w.ShardM, w.FrameLen = h.Shard, ec.K, ec.M, len(body)
			note = fmt.Sprintf("shard%d", h.Shard)
		} else {
			w.Body = body
		}
		if p.rec != nil {
			p.emit(trace.Event{
				Kind: trace.SamRepairSend, Name: uint64(o.name), Dst: int64(h.Rank),
				Bytes: len(w.Body), Aux: o.ckptSeq, Note: note,
			})
		}
		p.st.RepairObjects.Add(1)
		p.st.RepairBytes.Add(int64(len(w.Body)))
		p.send(h.Rank, w)
		p.store.AddHolder(uint64(o.name), o.ckptSeq, h)
	}
	return true
}
