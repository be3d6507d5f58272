package sam

import (
	"errors"
	"fmt"
	"sync/atomic"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/stats"
	"samft/internal/trace"
)

// Proc is one SAM process. The exported methods form the application API
// and may only be called from the application goroutine (the caller of
// Run); everything else runs on the process's runtime goroutine.
type Proc struct {
	cfg  Config
	task *pvm.Task
	st   *stats.Proc
	// rec is this process's trace track (shared with its netsim endpoint);
	// nil when tracing is disabled, making every emit site one branch.
	rec *trace.Recorder

	clocks *ft.Clocks
	taint  *ft.Taint

	cmdq  chan *cmd
	netq  chan netsim.Message
	deadc chan struct{}

	// ---- runtime-goroutine state below ----

	ranks []pvm.TID // rank -> current tid

	objs    map[Name]*object
	dir     map[Name]*dirEntry
	lruTick int64

	// Application coordination.
	app          App
	appParked    *cmd   // the command the app is currently blocked on, if any
	atGate       bool   // app is parked at a step boundary
	gateCmd      *cmd   // the gate command to release
	stepsDone    int64  // completed steps (boundary index)
	stepTainted  bool   // the in-progress step performed a non-reexecutable op
	boundarySnap []byte // packed app snapshot at the last boundary
	appFinished  bool

	// Fault tolerance.
	// store is the replicated checkpoint store: ring placement plus the
	// coverage ledger for this process's owned objects.
	store *ckptstore.Store
	// repairPending names owned objects whose ledgered coverage dropped
	// (a holder's incarnation was replaced) or was freshly rebuilt after
	// our own recovery; repairCoverage drains it.
	repairPending map[Name]bool
	// repairViolations records objects left under-replicated after repair
	// quiesced with no unreplaced dead ranks — an invariant breach the
	// chaos harness turns into a failure.
	repairViolations []string
	// shardAsm reassembles erasure-coded kRecoverData shards per object
	// until k of them allow a decode.
	shardAsm map[Name]*shardAsm
	// recoverContrib records which rank contributed which copy (and
	// shard) for each recovered object, so the rebuilt ledger reflects
	// the holders that actually exist rather than a recomputed placement.
	recoverContrib  map[Name]map[int]holderAt
	tx              *ckptTx
	pendingTriggers []trigger
	pendingForced   bool
	deferredMsgs    []*wire
	privStore       map[int][]byte // rank -> newest committed private state held here
	privStoreSeq    map[int]int64
	privStaging     map[int]*wire // provisional private states awaiting activation
	lastPrivBytes   []byte        // our own last checkpointed private state
	lastPrivSeq     int64
	useNotices      map[int]map[Name]int64 // owner rank -> name -> unreported uses
	freePending     map[Name]bool          // freeable mains awaiting coverage
	forceReplies    []forceReq
	hasCheckpointed bool

	// Recovery-mode restoration progress (only when cfg.Recovering).
	restore  *restoreState
	restorec chan restoreResult
	// ownerConfirmed / unconfirmedData resolve recovery data for objects
	// absent from the private state (acquired after the last checkpoint):
	// a main copy is installed only once the home or the previous holder
	// confirms this process owns it.
	ownerConfirmed  map[Name]bool
	unconfirmedData map[Name]*wire
	orphanHints     map[Name]int64 // name -> max hinted version pointing at us
	// pendingOwnerQueries defers answering other ranks' orphan-ownership
	// queries until this (recovering) home's directory has been rebuilt
	// from every survivor's reports.
	pendingOwnerQueries []*wire
	// recoverInstalled marks names whose recovery data has already been
	// applied this incarnation. Re-solicited contributions (a survivor
	// dying mid-recovery makes its replacement contribute again) can
	// deliver duplicates long after the object migrated away; installing
	// those would fork the object.
	recoverInstalled map[Name]bool
	finsGot          map[int]bool // survivors whose recovery contribution arrived
	orphansDecided   bool

	// Multi-failure bookkeeping: deadRanks tracks incarnations known dead
	// but not yet replaced (drives coordinator takeover when the recovery
	// coordinator itself dies); relayedFail dedupes kFailed relays;
	// contributedTo records the incarnation each recovery contribution was
	// sent to; pendingContrib defers contributions while this process's
	// own state is still being restored.
	deadRanks      map[int]netsim.TID
	relayedFail    map[failKey]bool
	contributedTo  map[int]netsim.TID
	pendingContrib map[int]bool

	// nProcessed counts runtime-loop events (messages and commands); the
	// harness samples it to detect quiescence before invariant checks.
	nProcessed atomic.Int64

	runDone chan struct{} // closed when the runtime goroutine exits
}

// failKey identifies one relay of a failure report: a (failed incarnation,
// chosen coordinator) pair, so repeated notifications re-relay only when
// the coordinator choice changes (e.g. the previous coordinator also died).
type failKey struct {
	rank  int
	tid   netsim.TID
	coord int
}

// trigger is a send of nonreproducible data that must ride a checkpoint
// transaction (§4.4 step 4).
type trigger struct {
	kind   int // kValData, kAccData, kAccSnap, kPush
	name   Name
	target int // destination rank
}

// NewProc creates a SAM process bound to a PVM task. Run must be called
// on the application goroutine to start it.
func NewProc(task *pvm.Task, cfg Config) *Proc {
	cfg.fill()
	if len(cfg.Ranks) != cfg.N {
		panic(fmt.Sprintf("sam: rank table has %d entries for N=%d", len(cfg.Ranks), cfg.N))
	}
	p := &Proc{
		cfg:              cfg,
		task:             task,
		st:               cfg.Stats,
		rec:              task.Endpoint().TraceRecorder(),
		clocks:           ft.NewClocks(cfg.Rank, cfg.N),
		taint:            ft.NewTaint(cfg.Policy),
		cmdq:             make(chan *cmd),
		netq:             make(chan netsim.Message, 4096),
		deadc:            make(chan struct{}),
		runDone:          make(chan struct{}),
		ranks:            append([]pvm.TID(nil), cfg.Ranks...),
		objs:             make(map[Name]*object),
		dir:              make(map[Name]*dirEntry),
		privStore:        make(map[int][]byte),
		privStoreSeq:     make(map[int]int64),
		privStaging:      make(map[int]*wire),
		useNotices:       make(map[int]map[Name]int64),
		freePending:      make(map[Name]bool),
		restorec:         make(chan restoreResult, 1),
		ownerConfirmed:   make(map[Name]bool),
		unconfirmedData:  make(map[Name]*wire),
		recoverInstalled: make(map[Name]bool),
		orphanHints:      make(map[Name]int64),
		finsGot:          make(map[int]bool),
		deadRanks:        make(map[int]netsim.TID),
		relayedFail:      make(map[failKey]bool),
		contributedTo:    make(map[int]netsim.TID),
		pendingContrib:   make(map[int]bool),
		repairPending:    make(map[Name]bool),
		shardAsm:         make(map[Name]*shardAsm),
		recoverContrib:   make(map[Name]map[int]holderAt),
	}
	p.store = ckptstore.NewStore(ckptstore.Config{
		Rank:   cfg.Rank,
		N:      cfg.N,
		Degree: cfg.Degree,
		EC:     ckptstore.ECParams{K: cfg.ECData, M: cfg.ECParity},
	})
	if cfg.Recovering {
		p.restore = newRestoreState()
	}
	return p
}

// Rank returns this process's logical rank.
func (p *Proc) Rank() int { return p.cfg.Rank }

// N returns the number of processes in the computation.
func (p *Proc) N() int { return p.cfg.N }

// Compute charges us microseconds of modeled local computation.
func (p *Proc) Compute(us float64) { p.task.Charge(us) }

// ClockUS returns the process's modeled local time.
func (p *Proc) ClockUS() float64 { return p.task.ClockUS() }

// ftEnabled reports whether fault tolerance is active: a policy is set
// and there is at least one other host to replicate to.
func (p *Proc) ftEnabled() bool {
	return p.cfg.Policy != ft.PolicyOff && p.cfg.N > 1
}

// procKilled unwinds the application goroutine when the process dies.
type procKilled struct{ rank int }

// Run executes the application under this process until it finishes or
// the process is killed. It returns true if the application ran to
// completion on this incarnation.
func (p *Proc) Run(app App) (finished bool) {
	p.app = app
	go p.receiver()
	go p.runtime()

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				finished = false
				return
			}
			panic(r)
		}
	}()

	start := int64(0)
	if p.cfg.Recovering {
		fresh, steps, snap := p.awaitRestore()
		if fresh {
			app.Init(p)
			p.gate(0, true)
			start = 0
		} else {
			state, err := codec.Unpack(snap)
			if err != nil {
				panic(fmt.Errorf("sam: rank %d cannot unpack recovered state: %w", p.cfg.Rank, err))
			}
			app.Restore(state)
			start = steps
		}
	} else {
		app.Init(p)
		p.gate(0, true) // initial checkpoint so recovery has a base state
	}

	replaying := p.cfg.Recovering
	for step := start + 1; ; step++ {
		more := app.Step(p, step)
		if replaying {
			// The step that was in progress at the crash has now been
			// re-executed: recovery proper is over.
			if p.rec != nil {
				p.emit(trace.Event{Kind: trace.SamRecDone, Aux: step})
			}
			replaying = false
		}
		if !more {
			break
		}
		p.st.StepsExecuted.Add(1)
		p.gate(step, false)
	}
	p.finish()
	return true
}

// receiver moves messages from the PVM mailbox to the runtime queue.
func (p *Proc) receiver() {
	for {
		m, err := p.task.Recv(pvm.AnySrc, pvm.AnyTag)
		if err != nil {
			close(p.netq)
			return
		}
		p.netq <- m
	}
}

// runtime is the message/command loop owning all shared-object state.
func (p *Proc) runtime() {
	defer close(p.runDone)
	defer close(p.deadc)
	// Watch every peer for failure (pvm_notify), as the paper's recovery
	// procedure requires.
	for r, tid := range p.ranks {
		if r != p.cfg.Rank {
			p.task.Notify(tid)
		}
	}
	// A recovering process announces its own incarnation to every peer and
	// asks for their contributions. The coordinator's kRecovery broadcast
	// usually beats this, but the announcement is what keeps recovery
	// going when the coordinator dies between respawning us and telling
	// the others, or when a survivor's earlier contribution went to a
	// previous (also failed) incarnation.
	if p.cfg.Recovering {
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamRecSolicit, Aux: int64(p.task.TID())})
		}
		for r := range p.ranks {
			if r != p.cfg.Rank {
				p.send(r, &wire{Kind: kRecoverReq, Target: p.cfg.Rank, NewTID: int(p.task.TID())})
			}
		}
	}
	for {
		select {
		case m, ok := <-p.netq:
			if !ok {
				return
			}
			p.handleMessage(m)
			p.nProcessed.Add(1)
		case c := <-p.cmdq:
			p.handleCmd(c)
			p.nProcessed.Add(1)
		}
	}
}

// ProcessedCount reports how many runtime events (messages and commands)
// this process has handled. The harness polls it to detect quiescence.
func (p *Proc) ProcessedCount() int64 { return p.nProcessed.Load() }

// reply completes an application command.
func (p *Proc) reply(c *cmd, obj interface{}, err error) {
	c.res <- cmdResult{obj: obj, err: err}
}

// park records that the application is blocked on c; the runtime keeps
// serving while it waits. Parking is a checkpoint opportunity (§4.4): if
// the in-progress step has performed no non-reexecutable operation, the
// state at the last boundary plus deterministic replay reproduces the
// process exactly, so pending checkpoint triggers can run now.
func (p *Proc) park(c *cmd) {
	p.appParked = c
	p.maybeStartTx()
}

// unpark completes the parked command.
func (p *Proc) unpark(obj interface{}, err error) {
	c := p.appParked
	p.appParked = nil
	if c != nil {
		p.reply(c, obj, err)
	}
}

// handleMessage dispatches one network message.
func (p *Proc) handleMessage(m netsim.Message) {
	if m.Tag == pvm.TagTaskExit {
		dead, err := netsim.ParseExitPayload(m.Payload)
		if err == nil {
			p.handleTaskExit(dead)
		}
		return
	}
	if m.Tag != TagSAM {
		// The runtime receives with AnyTag; anything that is neither an
		// exit notification nor a SAM frame is not ours to decode.
		return
	}
	w, err := decodeWire(m.Payload)
	if err != nil {
		// A corrupt frame is dropped like a line error; the protocol's
		// re-issue paths cover loss.
		return
	}
	p.dispatch(w)
}

// emit records one event on this process's trace track, stamping the
// rank and (unless the caller pre-filled it) the modeled clock. Call
// sites guard with p.rec != nil so the disabled path is a single branch
// with no event construction or clock read.
func (p *Proc) emit(e trace.Event) {
	e.Rank = p.cfg.Rank
	if e.VirtUS == 0 {
		e.VirtUS = p.task.ClockUS()
	}
	p.rec.Emit(e)
}

// trace logs one protocol event when tracing is enabled.
func (p *Proc) trace(format string, args ...interface{}) {
	if p.cfg.Trace != nil {
		p.cfg.Trace("[rank%d] "+format, append([]interface{}{p.cfg.Rank}, args...)...)
	}
}

func (p *Proc) dispatch(w *wire) {
	p.trace("recv %s from %d name=%v seq=%d inactive=%v target=%d",
		kindName(w.Kind), w.SrcRank, Name(w.Name), w.Seq, w.Inactive, w.Target)
	if p.rec != nil {
		switch w.Kind {
		case kRecoverPriv, kRecoverData, kDirReport, kOwnerReport, kOwnerHint, kRecoverFin:
			p.emit(trace.Event{
				Kind: trace.SamRecContrib, Src: int64(w.SrcRank),
				Note: kindName(w.Kind), Name: w.Name, Bytes: len(w.Body),
			})
		}
	}
	if w.HasStamp {
		p.clocks.AbsorbDelta(ft.DeltaStamp{
			From: w.SrcRank, Full: w.StampT,
			Idx: w.StampIdx, Val: w.StampVal, CForDst: w.StampC,
		})
		if len(p.freePending) > 0 {
			p.retryFrees()
		}
	}

	// While a checkpoint transaction is open, activation of other
	// processes' inactive data is deferred to keep this checkpoint
	// consistent (§4.4).
	if p.tx != nil && w.Kind == kActivate {
		p.deferredMsgs = append(p.deferredMsgs, w)
		return
	}

	switch w.Kind {
	case kValReg:
		p.onValReg(w)
	case kValReq:
		p.onValReq(w)
	case kValReqFwd:
		p.onValReqFwd(w)
	case kValData:
		p.onValData(w)
	case kValUsed:
		p.onValUsed(w)
	case kAccReg:
		p.onAccReg(w)
	case kAccAcq:
		p.onAccAcq(w)
	case kAccGrant:
		p.onAccGrant(w)
	case kAccData:
		p.onAccData(w)
	case kAccOwner:
		p.onAccOwner(w)
	case kAccSnapReq:
		p.onAccSnapReq(w)
	case kAccSnapFwd:
		p.onAccSnapFwd(w)
	case kAccSnap:
		p.onAccSnap(w)
	case kPush:
		p.onPushData(w)
	case kCkptPriv:
		p.onCkptPriv(w)
	case kCkptCopy:
		p.onCkptCopy(w)
	case kCkptAck:
		p.onCkptAck(w)
	case kActivate:
		p.onActivate(w)
	case kForceCkpt:
		p.onForceCkpt(w)
	case kForceAck:
		p.onForceAck(w)
	case kFreeCkpt:
		p.onFreeCkpt(w)
	case kFailed:
		p.onFailed(w)
	case kRecovery:
		p.onRecovery(w)
	case kRecoverPriv:
		p.onRecoverPriv(w)
	case kRecoverData:
		p.onRecoverData(w)
	case kDirReport:
		p.onDirReport(w)
	case kOwnerReport:
		p.onOwnerReport(w)
	case kOwnerHint:
		p.onOwnerHint(w)
	case kRecoverFin:
		p.onRecoverFin(w)
	case kOwnerQuery:
		p.onOwnerQuery(w)
	case kOwnerDeny:
		p.onOwnerDeny(w)
	case kRecoverReq:
		p.onRecoverReq(w)
	}
}

// send transmits a wire message to a rank's current tid. Messages to dead
// incarnations vanish in the network; the recovery protocol re-issues what
// matters.
func (p *Proc) send(rank int, w *wire) {
	if rank == p.cfg.Rank {
		// Loopback without the network: dispatch directly. This happens
		// for degenerate placements (home == self is handled inline by
		// callers, so loopbacks are rare).
		b := p.encodeWire(w, rank)
		if ww, err := decodeWire(b); err == nil {
			p.dispatch(ww)
		}
		return
	}
	b := p.encodeWire(w, rank)
	err := p.task.Send(p.ranks[rank], TagSAM, b)
	if err != nil && !errors.Is(err, netsim.ErrUnknownDest) {
		// ErrKilled: we are dead; the receiver goroutine will shut the
		// runtime down momentarily. Drop the send.
		return
	}
}

// touch updates an object's LRU stamp.
func (p *Proc) touch(o *object) {
	p.lruTick++
	o.lru = p.lruTick
}

// obj returns the local entry for name, creating a placeholder if absent.
func (p *Proc) obj(name Name) *object {
	o, ok := p.objs[name]
	if !ok {
		o = &object{name: name, state: stAbsent, ownerRank: -1, pendingMove: -1}
		p.objs[name] = o
	}
	return o
}

// dirEnt returns the directory entry for a name homed at this process.
func (p *Proc) dirEnt(name Name) *dirEntry {
	d, ok := p.dir[name]
	if !ok {
		d = &dirEntry{name: name, owner: -1, grantTarget: -1}
		p.dir[name] = d
	}
	return d
}

// home returns the rank holding directory information for name.
func (p *Proc) home(name Name) int { return ft.HomeRank(uint64(name), p.cfg.N) }

// evictIfNeeded enforces the cache capacity by dropping the least
// recently used unpinned, non-main, non-checkpoint entries. Dropping a
// consumer copy reports its outstanding uses to the owner first.
func (p *Proc) evictIfNeeded() {
	if p.cfg.CacheCapacity <= 0 {
		return
	}
	for {
		cached := 0
		var victim *object
		for _, o := range p.objs {
			if o.isMain || o.ckptCopy || o.pins > 0 || o.state != stPresent || o.kind != ft.KindValue {
				continue
			}
			cached++
			if victim == nil || o.lru < victim.lru {
				victim = o
			}
		}
		if cached <= p.cfg.CacheCapacity || victim == nil {
			return
		}
		p.noteUse(victim) // report outstanding uses before dropping
		delete(p.objs, victim.name)
	}
}

// finish marks the application complete; the runtime keeps serving other
// processes until the harness halts the machine.
func (p *Proc) finish() {
	c := &cmd{op: opFinish, res: make(chan cmdResult, 1)}
	select {
	case p.cmdq <- c:
		<-c.res
	case <-p.deadc:
	}
}

// Done exposes the runtime's termination (kill or halt) to the harness.
func (p *Proc) Done() <-chan struct{} { return p.runDone }
