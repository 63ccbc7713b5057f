// Package sim is the crash-consistency harness: it drives a deterministic,
// seeded workload against a tree mounted on a simulated power-cut disk
// (storage.SimDisk), enumerates every persistence-operation boundary as a
// crash point, and for each one replays the workload, crashes, reboots,
// reopens the tree through recovery and verifies three properties:
//
//  1. structural integrity — Tree.Verify plus the VerifyDeep audits
//     (leaf-chain order, fences, D_D placement, page leaks, WAL tail);
//  2. no lost acknowledged writes — everything the workload was told is
//     durable (successful Commit, FlushLog, Checkpoint or Close) is present
//     after recovery;
//  3. prefix consistency — the recovered key set equals the shadow model's
//     state at SOME operation boundary between the last acknowledged point
//     and the crash (unsynced tail operations may each survive or vanish,
//     but never partially apply and never out of order).
//
// RunNested adds a second cut inside the recovery itself, at each of its
// persistence operations, and checks the recovery after that.
//
// The harness is exercised by a bounded smoke test under `go test ./...`
// (tier-1) and by the full seed/fault-mode sweep behind the
// BLINKTREE_CRASHLOOP environment variable (the CI crashloop job).
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"blinktree/internal/core"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Config parameterizes one crash-point enumeration sweep. The zero value is
// usable: every field defaults to the values in withDefaults.
type Config struct {
	// Seed drives both the workload generator and the disk's survival
	// lottery; a given (Config, code version) pair replays identically.
	Seed int64

	// PageSize and CacheSize shape the tree under test. The defaults (512,
	// 8) are deliberately tiny: small pages force splits and consolidations
	// within a short workload, and a small pool forces dirty-page
	// write-backs between checkpoints, exercising the WAL rule.
	PageSize  int
	CacheSize int

	// Steps is the workload length; Keys bounds the key domain (small
	// enough that deletes find their targets and leaves go under-utilized).
	// The log writes records once per force, not once per record, so a step
	// costs few persistence operations: the default of 350 steps is what
	// gives the tier-1 sweeps their floors of crash points.
	Steps int
	Keys  int

	// MinFill is the consolidation threshold passed to the tree.
	MinFill float64

	// Stride enumerates every Stride-th crash point (1 = exhaustive).
	Stride int

	// TornPageWrites and TornWALTail enable the disk's sector-granular
	// page tearing and torn-final-frame modes.
	TornPageWrites bool
	TornWALTail    bool

	// ProcessDeath makes each crash point a death of the process, not a
	// power cut (storage.SimConfig.ProcessDeath): every write issued before
	// it survives, synced or not, and what the process held in memory — the
	// log's unwritten tail first of all — is lost. The contract checked is
	// the same.
	ProcessDeath bool

	// Durability selects the commit acknowledgement mode under test; see
	// DurabilityContract for the per-mode loss contract the sweep
	// verifies. The tree always runs with autonomous forcing disabled
	// (core.Options.FlushInterval = -1) so the persistence-operation
	// stream stays deterministic across replays: under wal.DurPeriodic
	// and wal.DurAsync the only forces are the workload's explicit
	// FlushLog/Checkpoint/Close steps, which is exactly the worst-case
	// loss window those modes permit.
	Durability wal.DurabilityMode

	// MaxViolations caps how many failing crash points are described in
	// the report before the sweep stops early (0 = default 10).
	MaxViolations int

	// BulkLoad seeds the tree through the chunked bulk loader (half the key
	// domain, ascending) before the random workload starts, with
	// BulkChunkPages forced low so the load spans many SMOBulkChunk records.
	// The sweep then verifies the load's all-or-nothing contract at every
	// crash point inside it: either every loaded record survives recovery
	// (the commit record was durable) or none does — chunk records without
	// a commit are skipped wholesale. The tree runs with WorkersNone, so the
	// load builds every chunk on the calling goroutine: builder goroutines
	// would make the persistence-operation stream nondeterministic across
	// replays, and the chunks, pages and log records are the same either
	// way.
	BulkLoad bool
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 512
	}
	if c.CacheSize == 0 {
		c.CacheSize = 8
	}
	if c.Steps == 0 {
		c.Steps = 350
	}
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.MinFill == 0 {
		c.MinFill = 0.35
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 10
	}
	return c
}

// Report aggregates one sweep: how many crash points were enumerated, what
// fault modes actually fired, what recovery had to do, and every invariant
// violation found (an empty Violations is the pass condition).
type Report struct {
	// Contract restates the durability contract this sweep verified (see
	// DurabilityContract), so matrix logs are self-describing.
	Contract string

	// Ops is the persistence-operation count of the crash-free run; crash
	// points are enumerated over [1, Ops].
	Ops int64

	// CrashPoints is the number of crash points actually exercised, and
	// RecoveryCuts the second cuts RunNested made inside their recoveries.
	CrashPoints  int
	RecoveryCuts int

	// Violations describes each failing crash point, capped at
	// Config.MaxViolations.
	Violations []string

	// TornPages / DroppedFrames / TornTails total the fault modes the disk
	// injected across all crash points; a sweep that never tears a page
	// or drops a frame is not testing much.
	TornPages     int
	DroppedFrames int
	TornTails     int

	// Recovery totals across all reopens; MasterRestarts counts those
	// that read the log from a master record's checkpoint, not its start.
	// CorruptPages are torn pages redo found and healed from the images
	// logged on their first change after the checkpoint.
	MasterRestarts int
	CorruptPages   int
	LosersUndone   int
	SMOsRedone     int
	RecOpsRedone   int
}

// Passed reports whether the sweep found no violations.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// DurabilityContract states the loss contract the sweep verifies for mode:
// what a successful Txn.Commit acknowledgement is allowed to mean at a
// crash. Every mode additionally guarantees structural integrity and
// shadow-prefix consistency after recovery.
func DurabilityContract(m wal.DurabilityMode) string {
	if m.AckAfterForce() {
		return m.String() + ": no acknowledged commit is ever lost (ack follows the log force covering its LSN)"
	}
	return m.String() + ": a crash loses at most the commits appended since the last explicit force (FlushLog/Checkpoint/Close); acknowledged-but-unforced commits may vanish, but only as a suffix"
}

// String renders a one-paragraph summary (used by the E13 experiment table
// notes and test logs).
func (r *Report) String() string {
	s := fmt.Sprintf(
		"crash points %d over %d ops: %d violations; torn pages %d, dropped frames %d, torn tails %d; recovery: %d from a master record, %d SMOs, %d recops, %d losers undone, %d corrupt pages healed",
		r.CrashPoints, r.Ops, len(r.Violations), r.TornPages, r.DroppedFrames,
		r.TornTails, r.MasterRestarts, r.SMOsRedone, r.RecOpsRedone, r.LosersUndone,
		r.CorruptPages)
	if r.RecoveryCuts > 0 {
		s += fmt.Sprintf("; %d cuts inside recovery", r.RecoveryCuts)
	}
	return s
}

// simOp is one shadow-model mutation. A delete of an absent key is a no-op
// in both the tree and the shadow, so ops can be recorded unconditionally.
type simOp struct {
	del      bool
	key, val string
}

// group is the shadow model's atom of visibility: either a single
// autocommit operation or a whole transaction. A group's effects appear in
// the recovered tree all-or-nothing — autocommit ops are individually
// logged, transactions become visible only if their commit record survived.
// aborted groups (cleanly aborted or crashed mid-transaction before commit)
// are never visible: recovery undoes them as losers.
type group struct {
	ops     []simOp
	aborted bool
}

// shadow is the flat committed-effect model built while driving the
// workload. groups[:acked] are guaranteed durable (the workload received a
// successful Commit/FlushLog/Checkpoint/Close acknowledgement covering
// them); groups[acked:] are the unsynced tail, each of which may or may not
// have survived — but only as a prefix.
type shadow struct {
	groups []group
	acked  int
}

// driver replays the seeded workload against one tree/disk pair, recording
// the shadow model as it goes. Runs with the same Config draw the same
// random sequence, so every crash run executes a prefix of the counting
// run's operation stream.
type driver struct {
	cfg  Config
	disk *storage.SimDisk
	tree *core.Tree
	rng  *rand.Rand
	sh   shadow
}

func (d *driver) key() string {
	return fmt.Sprintf("key-%04d", d.rng.Intn(d.cfg.Keys))
}

func (d *driver) val(step int) string {
	return fmt.Sprintf("val-%04d-%08d-%024d", step, d.rng.Intn(1<<30), 0)
}

// crashed reports whether err (or the disk state) indicates the simulated
// power cut, which ends the drive without being a violation.
func (d *driver) crashed(err error) bool {
	return d.disk.Crashed() || errors.Is(err, storage.ErrPowerCut)
}

// survivePowerCut converts a panic raised while the disk is crashed into a
// normal return. The SMO machinery treats a log-append failure as fatal and
// panics — which is faithful: a real power cut kills the process mid-SMO.
// The harness models that death and proceeds to reboot and recovery. Panics
// on a healthy disk are real bugs and propagate.
func survivePowerCut(disk *storage.SimDisk, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if disk.Crashed() {
				err = nil
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// run drives the workload to completion or power cut. A non-nil return is
// a real violation (an operation failed for a reason other than the cut).
func (d *driver) run() error {
	return survivePowerCut(d.disk, d.runSteps)
}

func (d *driver) runSteps() error {
	if d.cfg.BulkLoad {
		if err := d.seedBulkLoad(); err != nil || d.disk.Crashed() {
			return err
		}
	}
	for i := 0; i < d.cfg.Steps; i++ {
		if d.disk.Crashed() {
			return nil
		}
		if err := d.step(i); err != nil {
			return err
		}
	}
	if d.disk.Crashed() {
		return nil
	}
	// Clean shutdown flushes everything: full acknowledgement.
	if err := d.tree.Close(); err != nil {
		if d.crashed(err) {
			return nil
		}
		return fmt.Errorf("close: %w", err)
	}
	d.sh.acked = len(d.sh.groups)
	return nil
}

// step executes one workload step. The mix is weighted toward mutations,
// with enough maintenance drains to complete splits and consolidations and
// enough durability points to move the acknowledged horizon.
func (d *driver) step(i int) error {
	r := d.rng.Intn(100)
	switch {
	case r < 42: // autocommit put
		op := simOp{key: d.key(), val: d.val(i)}
		return d.autocommit(op, d.tree.Put([]byte(op.key), []byte(op.val)))
	case r < 64: // autocommit delete
		op := simOp{del: true, key: d.key()}
		err := d.tree.Delete([]byte(op.key))
		if errors.Is(err, core.ErrKeyNotFound) {
			err = nil // no-op in tree and shadow alike
		}
		return d.autocommit(op, err)
	case r < 74: // transaction, committed
		return d.txn(false)
	case r < 78: // transaction, deliberately aborted
		return d.txn(true)
	case r < 84: // force the log: acknowledges every group so far
		if err := d.tree.FlushLog(); err != nil {
			if d.crashed(err) {
				return nil
			}
			return fmt.Errorf("flushlog: %w", err)
		}
		d.sh.acked = len(d.sh.groups)
		return nil
	case r < 94: // maintenance: complete pending splits/consolidations
		d.tree.DrainTodo()
		return nil // a power cut inside the drain surfaces via disk.Crashed
	default: // checkpoint: flush pages, sync store, log checkpoint record
		if err := d.tree.Checkpoint(); err != nil {
			if d.crashed(err) {
				return nil
			}
			return fmt.Errorf("checkpoint: %w", err)
		}
		d.sh.acked = len(d.sh.groups)
		return nil
	}
}

// seedBulkLoad runs the chunked bulk loader over the even half of the key
// domain and records it as ONE shadow group: the load is atomic, so its
// records appear after recovery all together or not at all. On success the
// loader's completion checkpoint makes the group acknowledged-durable; on a
// power cut mid-load the group sits in the maybe-visible tail (the commit
// record may or may not have been appended before the cut), which the
// prefix check accommodates — but only as a unit, never partially.
func (d *driver) seedBulkLoad() error {
	g := group{}
	for i := 0; i < d.cfg.Keys; i += 2 {
		g.ops = append(g.ops, simOp{
			key: fmt.Sprintf("key-%04d", i),
			val: fmt.Sprintf("load-%04d-%024d", i, 0),
		})
	}
	i := 0
	next := func() ([]byte, []byte, bool) {
		if i >= len(g.ops) {
			return nil, nil, false
		}
		op := g.ops[i]
		i++
		return []byte(op.key), []byte(op.val), true
	}
	err := d.tree.BulkLoad(next, 0.85)
	d.sh.groups = append(d.sh.groups, g)
	switch {
	case err == nil:
		d.sh.acked = len(d.sh.groups)
		return nil
	case d.crashed(err):
		return nil
	default:
		return fmt.Errorf("bulk load: %w", err)
	}
}

// autocommit records a single-op group. On success the group is in the
// unforced tail (logged, not forced: it survives the crash only if a force
// wrote it out and the survival lottery kept it); on a power cut the op is
// the final "attempted" group — its log record may or may not have been
// appended before the cut, so it may or may not be visible, which the
// prefix check accommodates.
func (d *driver) autocommit(op simOp, err error) error {
	if err != nil && !d.crashed(err) {
		return fmt.Errorf("autocommit %q: %w", op.key, err)
	}
	d.sh.groups = append(d.sh.groups, group{ops: []simOp{op}})
	return nil
}

// txn runs one contained transaction (no other operations interleave with
// it, so its log records are contiguous and the group model is exact).
func (d *driver) txn(abort bool) error {
	x, err := d.tree.Begin()
	if err != nil {
		if d.crashed(err) {
			return nil
		}
		return fmt.Errorf("begin: %w", err)
	}
	g := group{}
	n := 2 + d.rng.Intn(3)
	for j := 0; j < n; j++ {
		op := simOp{key: d.key()}
		if d.rng.Intn(100) < 25 {
			op.del = true
			err = x.Delete([]byte(op.key))
			if errors.Is(err, core.ErrKeyNotFound) {
				err = nil
			}
		} else {
			op.val = d.val(j)
			err = x.Put([]byte(op.key), []byte(op.val))
		}
		if err != nil {
			// A power cut mid-transaction means no commit record can ever
			// become durable: the transaction is a loser, never visible.
			// A clean in-run abort (lock or delete-state conflict) likewise.
			if !d.crashed(err) {
				_ = x.Abort()
			}
			g.aborted = true
			d.sh.groups = append(d.sh.groups, g)
			if d.crashed(err) {
				return nil
			}
			return nil
		}
		g.ops = append(g.ops, op)
	}
	if abort {
		g.aborted = true
		d.sh.groups = append(d.sh.groups, g)
		if err := x.Abort(); err != nil && !d.crashed(err) {
			return fmt.Errorf("abort: %w", err)
		}
		return nil
	}
	err = x.Commit()
	d.sh.groups = append(d.sh.groups, g)
	switch {
	case err == nil:
		// The acknowledged-durable horizon only advances when the mode's
		// contract says a successful Commit implies a covering log force
		// (sync). Under periodic/async the commit is acknowledged
		// but unforced: it stays in the maybe-visible tail until the next
		// explicit FlushLog/Checkpoint/Close.
		if d.cfg.Durability.AckAfterForce() {
			d.sh.acked = len(d.sh.groups)
		}
		return nil
	case d.crashed(err):
		// The commit record may have been appended before the cut; the
		// group stays in the maybe-visible tail.
		return nil
	default:
		return fmt.Errorf("commit: %w", err)
	}
}

// newTree mounts a worker-less tree on the sim disk. WorkersNone keeps the
// run single-threaded and deterministic: maintenance happens only inside
// DrainTodo steps, so the persistence-operation stream is identical across
// replays. FlushInterval -1 disables the commit pipeline's autonomous
// forcing for the same reason — a timer-driven background Sync would land
// at a nondeterministic position in the disk's op count.
func newTree(cfg Config, disk *storage.SimDisk) (*core.Tree, error) {
	opts := core.Options{
		PageSize:      cfg.PageSize,
		CacheSize:     cfg.CacheSize,
		MinFill:       cfg.MinFill,
		Workers:       core.WorkersNone,
		Store:         disk.Store(),
		LogDevice:     disk.WAL(),
		Durability:    cfg.Durability,
		FlushInterval: -1,
	}
	if cfg.BulkLoad {
		// One node per chunk record: maximizes distinct crash points inside
		// the chunked-logging path.
		opts.BulkChunkPages = 1
	}
	return core.New(opts)
}

// checkRecovered verifies the recovered tree against the shadow model:
// structural invariants first, then the acknowledged-prefix equivalence.
func checkRecovered(t *core.Tree, sh *shadow) error {
	t.DrainTodo()
	if _, err := t.VerifyDeep(); err != nil {
		return fmt.Errorf("verify-deep: %w", err)
	}
	rec, err := t.Records()
	if err != nil {
		return fmt.Errorf("records: %w", err)
	}
	return matchPrefix(sh, rec)
}

// matchPrefix checks that rec equals the shadow fold of groups[:g] for some
// g in [acked, len(groups)]. It folds the acknowledged prefix, counts the
// keys on which candidate and recovered disagree, then applies tail groups
// one at a time, updating the disagreement count incrementally — one pass
// over the workload regardless of where the match lands.
func matchPrefix(sh *shadow, rec map[string][]byte) error {
	cand := make(map[string]string)
	apply := func(g group) {
		if g.aborted {
			return
		}
		for _, op := range g.ops {
			if op.del {
				delete(cand, op.key)
			} else {
				cand[op.key] = op.val
			}
		}
	}
	for _, g := range sh.groups[:sh.acked] {
		apply(g)
	}

	matches := func(k string) bool {
		cv, cok := cand[k]
		rv, rok := rec[k]
		return cok == rok && (!cok || cv == string(rv))
	}
	diff := 0
	seen := make(map[string]struct{}, len(cand)+len(rec))
	for k := range cand {
		seen[k] = struct{}{}
	}
	for k := range rec {
		seen[k] = struct{}{}
	}
	for k := range seen {
		if !matches(k) {
			diff++
		}
	}

	applyTracked := func(g group) {
		if g.aborted {
			return
		}
		for _, op := range g.ops {
			before := matches(op.key)
			if op.del {
				delete(cand, op.key)
			} else {
				cand[op.key] = op.val
			}
			if after := matches(op.key); after != before {
				if after {
					diff--
				} else {
					diff++
				}
			}
		}
	}
	for g := sh.acked; ; g++ {
		if diff == 0 {
			return nil
		}
		if g >= len(sh.groups) {
			break
		}
		applyTracked(sh.groups[g])
	}
	// No prefix matched. Distinguish the two failure classes for triage:
	// a key wrong at the acknowledged prefix is a lost acknowledged write;
	// otherwise the tail applied inconsistently (out of order or torn).
	return fmt.Errorf("recovered state (%d keys) matches no shadow prefix in [acked=%d, %d]; %d keys disagree at the longest prefix",
		len(rec), sh.acked, len(sh.groups), diff)
}

// Run executes one sweep: a crash-free counting run to learn the operation
// total, then one crash-reboot-recover-verify cycle per enumerated crash
// point. The returned error reports harness-level failures only (the
// counting run itself failing); per-crash-point failures are collected in
// Report.Violations.
func Run(cfg Config) (*Report, error) { return sweep(cfg, runCrashPoint) }

// RunNested is the second-order sweep: it crashes recovery itself. For each
// enumerated first crash point it counts the persistence operations of the
// recovery that follows (redo's eviction write-backs and deallocations,
// undo's log appends and forces), then cuts at each of them in turn, reboots,
// recovers again and checks against the shadow of the first run. Multi-level
// recovery (§2.1) is only as robust as it is idempotent.
func RunNested(cfg Config) (*Report, error) { return sweep(cfg, runNestedPoint) }

// sweep runs the counting run, checks its clean recovery, then runs point
// on every Stride-th crash point.
func sweep(cfg Config, point func(Config, int64, *Report) error) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Contract: DurabilityContract(cfg.Durability)}

	// Counting run: never crashes (CrashAt 0 disarms the trigger).
	disk := storage.NewSimDisk(cfg.PageSize, cfg.disk(0))
	tree, err := newTree(cfg, disk)
	if err != nil {
		return rep, fmt.Errorf("sim: counting run open: %w", err)
	}
	d := &driver{cfg: cfg, disk: disk, tree: tree, rng: rand.New(rand.NewSource(cfg.Seed))}
	if err := d.run(); err != nil {
		return rep, fmt.Errorf("sim: counting run: %w", err)
	}
	if disk.Crashed() {
		return rep, fmt.Errorf("sim: counting run crashed without a crash point armed")
	}
	rep.Ops = disk.Ops()
	// The crash-free run must also recover to exactly its own final state.
	disk.Reboot()
	if err := reopenAndCheck(cfg, disk, &d.sh, rep); err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("crash-free run: %v", err))
	}

	for k := int64(1); k <= rep.Ops; k += int64(cfg.Stride) {
		if len(rep.Violations) >= cfg.MaxViolations {
			break
		}
		rep.CrashPoints++
		if err := point(cfg, k, rep); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("crash point %d: %v", k, err))
		}
	}
	return rep, nil
}

// disk is the simulated disk's configuration for a run cut at op crashAt
// (zero: never).
func (c Config) disk(crashAt int64) storage.SimConfig {
	return storage.SimConfig{
		Seed:           c.Seed,
		CrashAt:        crashAt,
		SectorSize:     c.PageSize / 4,
		TornPageWrites: c.TornPageWrites,
		TornWALTail:    c.TornWALTail,
		ProcessDeath:   c.ProcessDeath,
	}
}

// replayCut replays the workload with the cut armed at op k and returns the
// crashed disk, not yet rebooted, with the shadow the replay recorded.
func replayCut(cfg Config, k int64) (*storage.SimDisk, *shadow, error) {
	disk := storage.NewSimDisk(cfg.PageSize, cfg.disk(k))
	tree, err := newTree(cfg, disk)
	switch {
	case err != nil && disk.Crashed():
		// The cut fired while the initial open was formatting the tree:
		// nothing was ever acknowledged, so recovery to any state up to
		// and including the empty tree is correct.
		return disk, &shadow{}, nil
	case err != nil:
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	d := &driver{cfg: cfg, disk: disk, tree: tree, rng: rand.New(rand.NewSource(cfg.Seed))}
	err = d.run()
	tree.Abandon()
	if err != nil {
		return nil, nil, err
	}
	if !disk.Crashed() {
		// The workload is deterministic, so op k must be reached — the
		// counting run performed rep.Ops >= k operations.
		return nil, nil, fmt.Errorf("crash point never fired (nondeterministic op stream?)")
	}
	return disk, &d.sh, nil
}

// tally folds the fault modes the disk has injected so far into rep.
func (r *Report) tally(disk *storage.SimDisk) {
	r.TornPages += disk.TornPages()
	r.DroppedFrames += disk.DroppedFrames()
	if torn, _ := disk.WAL().TailTorn(); torn {
		r.TornTails++
	}
}

// runCrashPoint replays the workload with the cut armed at op k, reboots
// and verifies. Fault-mode and recovery counters accumulate into rep
// regardless of outcome.
func runCrashPoint(cfg Config, k int64, rep *Report) error {
	disk, sh, err := replayCut(cfg, k)
	if err != nil {
		return err
	}
	disk.Reboot()
	rep.tally(disk)
	return reopenAndCheck(cfg, disk, sh, rep)
}

// runNestedPoint counts the persistence operations of the recovery after a
// cut at op k, then for each of them replays the cut at k, cuts the
// recovery there, reboots and verifies the second recovery.
func runNestedPoint(cfg Config, k int64, rep *Report) error {
	disk, _, err := replayCut(cfg, k)
	if err != nil {
		return err
	}
	disk.Reboot()
	before := disk.Ops()
	t, err := newTree(cfg, disk)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	n := disk.Ops() - before
	t.Abandon()
	for j := int64(1); j <= n; j++ {
		rep.RecoveryCuts++
		if err := runRecoveryCut(cfg, k, j, rep); err != nil {
			return fmt.Errorf("recovery cut at its op %d of %d: %w", j, n, err)
		}
	}
	return nil
}

// runRecoveryCut replays the cut at op k, cuts the recovery that follows at
// its op j, then reboots and verifies against the first replay's shadow.
func runRecoveryCut(cfg Config, k, j int64, rep *Report) error {
	disk, sh, err := replayCut(cfg, k)
	if err != nil {
		return err
	}
	disk.RebootAndArm(j)
	err = survivePowerCut(disk, func() error {
		t, err := newTree(cfg, disk)
		if err == nil {
			t.Abandon()
		}
		return err
	})
	if !disk.Crashed() {
		return fmt.Errorf("cut inside recovery never fired (recovery: %v)", err)
	}
	disk.Reboot()
	rep.tally(disk)
	return reopenAndCheck(cfg, disk, sh, rep)
}

// reopenAndCheck runs recovery over the rebooted disk and verifies the
// recovered tree against the shadow, folding recovery counters into rep.
func reopenAndCheck(cfg Config, disk *storage.SimDisk, sh *shadow, rep *Report) error {
	t, err := newTree(cfg, disk)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer t.Abandon()
	rs := t.RecoveryStats()
	if rs.Recovered && rs.FullLogRead == "" {
		rep.MasterRestarts++
	}
	rep.CorruptPages += rs.CorruptPages
	rep.LosersUndone += rs.LosersUndone
	rep.SMOsRedone += rs.SMOsRedone
	rep.RecOpsRedone += rs.RecOpsRedone
	return checkRecovered(t, sh)
}
