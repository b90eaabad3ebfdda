package live

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/history"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

// checkpoint is StateFile's on-disk form. Window and Acked keep the layout
// of existing federation stores, so those restore without migration.
// decodeCheckpoint reads it; encodeCheckpoint writes the same bytes
// json.Marshal would.
type checkpoint struct {
	Format string           `json:"format"`
	Window MultiWindowState `json:"window"`
	// Acked maps an input stream key to its folded byte offset as of this
	// generation: "<collector>/<shard>" for federation input, the bare
	// shard name for the local spool. Keys sort deterministically in
	// encoding/json.
	Acked map[string]int64 `json:"acked"`
}

// Aggregator is the aggregation plane's one fold-and-publish core. Input
// adapters fold records into its source-keyed MultiWindow — the local
// spool reader on every Tick (with Config.SpoolDir set), the federation
// receiver through Fold — and Tick drains the window into a generation
// whose checkpoint binds the window state to the input positions that
// produced it. Safe for concurrent use.
type Aggregator struct {
	cfg   Config
	build *mapbuild.Builder

	mu        sync.Mutex
	win       *MultiWindow
	acked     map[string]int64 // input stream key -> folded offset
	durable   map[string]int64 // acked as of the last published generation
	pending   int              // folds since the last publish
	fresh     int              // records folded since the last publish
	draining  bool             // a Tick is snapshotting/publishing: refuse folds
	published bool             // the store holds a generation: idle ticks skip
	// stale and stragglers already reported to the metric counters.
	seenStale, seenStragglers int
	// stateLen is the length of the last encoded checkpoint, the next
	// one's starting capacity: a checkpoint is megabytes and grows little
	// from tick to tick, so growing it from empty would copy it many times.
	stateLen int

	mTicks      *obs.Counter
	mErrors     *obs.Counter
	mPublish    *obs.Counter
	mStale      *obs.Counter
	mStragglers *obs.Counter
	mTailed     *obs.Counter
	mBadLines   *obs.Counter
	mOversize   *obs.Counter
	gRecords    *obs.Gauge
	gBlocks     *obs.Gauge
	gSources    *obs.Gauge
	gPending    *obs.Gauge
	hRefresh    *obs.Histogram
	// live_refresh_stage_seconds, one histogram per stage.
	hMerge, hBuild, hCheckpoint, hWrite *obs.Histogram
}

// NewAggregator validates cfg and recovers the window and input positions
// from the checkpoint of the store's current generation, if any. A current
// generation without a usable checkpoint — unreadable, from an older
// format, or written by the other input mode — falls back to an empty
// window: the spool is re-read once, or shippers re-ship from their
// durable offsets. Correctness never depends on the checkpoint; it only
// saves work.
func NewAggregator(cfg Config) (*Aggregator, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	build, err := mapbuild.New(cfg.Threshold, cfg.Inputs)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	a := &Aggregator{
		cfg:     cfg,
		build:   build,
		win:     NewMultiWindow(cfg.WindowDays),
		acked:   make(map[string]int64),
		durable: make(map[string]int64),
	}
	if reg := cfg.Metrics; reg != nil {
		a.mTicks = reg.Counter("live_refresh_total", "Refresh ticks attempted.")
		a.mErrors = reg.Counter("live_refresh_errors_total", "Refresh ticks that failed.")
		a.mPublish = reg.Counter("live_publish_total", "Map generations published.")
		a.mStale = reg.Counter("live_stale_records_total", "Records dropped as older than the window.")
		a.mStragglers = reg.Counter("live_window_stragglers_total", "Records dropped on arrival as already older than the window (late or out-of-order days).")
		a.gRecords = reg.Gauge("live_window_records", "Records in the current window.")
		a.gBlocks = reg.Gauge("live_window_blocks", "Distinct blocks in the last published window.")
		a.gSources = reg.Gauge("live_window_sources", "Sources with records in the current window.")
		a.gPending = reg.Gauge("live_pending_folds", "Folds awaiting the next publish.")
		a.hRefresh = reg.Histogram("live_refresh_seconds", "Drain, build and publish latency of one refresh.", nil)
		stage := func(name string) *obs.Histogram {
			return reg.Histogram("live_refresh_stage_seconds", "Latency of one stage of a refresh.", nil, obs.L("stage", name))
		}
		a.hMerge, a.hBuild, a.hCheckpoint, a.hWrite = stage("merge"), stage("build"), stage("checkpoint"), stage("publish")
		if cfg.SpoolDir != "" {
			a.mTailed = reg.Counter("live_tailed_records_total", "Spool records consumed.")
			a.mBadLines = reg.Counter("live_spool_bad_lines_total", "Malformed or invalid spool lines skipped.")
			a.mOversize = reg.Counter("live_spool_oversize_lines_total", "Spool lines skipped as longer than the line cap.")
		}
	}
	cur, ok, err := cfg.Store.Current()
	if err != nil {
		return nil, err
	}
	if ok {
		a.published = true
		if err := a.recover(cur); err != nil {
			cfg.Logf("live: checkpoint of %s unusable (%v); starting empty", cur.Name(), err)
		}
	}
	a.observe()
	return a, nil
}

// recover restores the window and input positions from a generation's
// checkpoint, all or nothing.
func (a *Aggregator) recover(gen snapshot.Generation) error {
	raw, err := os.ReadFile(gen.Path(StateFile))
	if err != nil {
		return err
	}
	win, acked, err := decodeCheckpoint(raw, a.cfg.WindowDays, a.cfg.SpoolDir != "")
	if err != nil {
		return err
	}
	a.win = win
	for k, v := range acked {
		a.acked[k] = v
		a.durable[k] = v
	}
	return nil
}

// decodeCheckpoint parses StateFile bytes into the window they hold and
// the input offsets that produced it, or refuses them. local says which
// input mode resumes from it: the local spool (true) or federation.
func decodeCheckpoint(raw []byte, days int, local bool) (*MultiWindow, map[string]int64, error) {
	var ck checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		return nil, nil, err
	}
	if ck.Format != stateFormat {
		return nil, nil, fmt.Errorf("unknown checkpoint format %q", ck.Format)
	}
	for key, off := range ck.Acked {
		// A spool-fed window restored into a receiver (or the reverse)
		// would mix records whose input positions the new mode cannot
		// track. Local keys are bare shard names; collector keys always
		// hold a '/'.
		if strings.Contains(key, "/") == local {
			return nil, nil, errors.New("checkpoint written by the other input mode")
		}
		// No input is read from before its start: a negative offset
		// would fail every later read of that input.
		if off < 0 {
			return nil, nil, fmt.Errorf("checkpoint offset of %q is negative (%d)", key, off)
		}
	}
	win, err := RestoreMultiWindow(ck.Window, days)
	if err != nil {
		return nil, nil, err
	}
	// Records without the positions that produced them would fold a
	// second time when their input is read again. Checkpoints of the
	// former spool tailer kept its positions outside Acked.
	if win.Records() > 0 && len(ck.Acked) == 0 {
		return nil, nil, errors.New("checkpoint window has records but no input positions")
	}
	return win, ck.Acked, nil
}

// Folder is the aggregator as an input adapter sees it inside Fold: under
// the aggregator's lock, so everything it reads and folds is consistent
// with what the next Tick snapshots. Valid only during the Fold call.
type Folder struct{ a *Aggregator }

// Offsets returns the folded offset of an input stream and the part of it
// the last published checkpoint covers.
func (f Folder) Offsets(key string) (acked, durable int64) {
	return f.a.acked[key], f.a.durable[key]
}

// Busy reports whether a fold must wait: a Tick is draining the window
// into a publish, or max folds already await one.
func (f Folder) Busy(max int) bool { return f.a.draining || f.a.pending >= max }

// Add folds one record from source into the window.
func (f Folder) Add(source string, rec beacon.Record) { f.a.add(source, rec) }

// Commit records that key is folded up to offset: one more fold for the
// next Tick to publish.
func (f Folder) Commit(key string, offset int64) {
	f.a.acked[key] = offset
	f.a.pending++
}

// PayloadStats reports what FoldPayload made of one payload.
type PayloadStats struct {
	Records  int // records folded
	Bad      int // malformed lines, and records beacon.Record.Validate refuses, skipped
	Oversize int // lines skipped as longer than logio.MaxLineBytes
}

// FoldPayload folds every record of an in-memory JSONL payload into the
// window under source. Blank lines are skipped; malformed lines, records
// the collector would refuse (beacon.Record.Validate) and lines longer
// than logio.MaxLineBytes are skipped and counted. It cannot fail,
// so an input adapter folds a payload whole or, by not calling it, not at
// all.
func FoldPayload(f Folder, source string, payload []byte) PayloadStats {
	return eachRecord(payload, func(rec beacon.Record) { f.Add(source, rec) })
}

// eachRecord decodes a JSONL payload line by line for FoldPayload.
func eachRecord(payload []byte, fn func(beacon.Record)) PayloadStats {
	var st PayloadStats
	for len(payload) > 0 {
		line := payload
		if i := bytes.IndexByte(payload, '\n'); i >= 0 {
			line, payload = payload[:i], payload[i+1:]
		} else {
			payload = nil
		}
		raw := bytes.TrimSpace(line)
		switch {
		case len(raw) == 0:
		case len(line) > logio.MaxLineBytes:
			st.Oversize++
		default:
			var rec beacon.Record
			if beacon.DecodeRecord(raw, &rec) != nil || rec.Validate() != nil {
				st.Bad++
				continue
			}
			fn(rec)
			st.Records++
		}
	}
	return st
}

// Fold runs fn with the window open for folding. fn runs under the
// aggregator's lock, so an input adapter's offset checks and the records
// they admit are atomic with respect to Tick; it must not call back into
// the Aggregator.
func (a *Aggregator) Fold(fn func(Folder)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fn(Folder{a})
	a.observe()
}

func (a *Aggregator) add(source string, rec beacon.Record) {
	a.win.Add(source, rec)
	a.fresh++
}

// observe brings the window metrics up to date. Called with mu held.
func (a *Aggregator) observe() {
	a.gRecords.Set(int64(a.win.Records()))
	a.gSources.Set(int64(a.win.Sources()))
	a.gPending.Set(int64(a.pending))
	a.mStale.Add(uint64(a.win.Stale() - a.seenStale))
	a.mStragglers.Add(uint64(a.win.Stragglers() - a.seenStragglers))
	a.seenStale, a.seenStragglers = a.win.Stale(), a.win.Stragglers()
}

// poll folds every sealed spool byte past its shard's acked offset, as the
// federation shipper and receiver do between them: a plain shard segment
// by segment, each folded whole and committed at its end, and a gzip
// shard whole, in bounded chunks, committed at its end. A line too long for any
// segment is skipped and counted as oversize. A shard that fails is left
// where it stands and poll goes on to the next, so one bad shard does not
// hold back the rest; the failures are returned joined. A missing spool
// directory is an empty spool; without Config.SpoolDir poll is a no-op.
// Called with mu held.
func (a *Aggregator) poll() error {
	if a.cfg.SpoolDir == "" {
		return nil
	}
	files, err := logio.SpoolFiles(a.cfg.SpoolDir, logio.SpoolPrefix)
	if errors.Is(err, os.ErrNotExist) {
		return nil // the collector has not started yet
	}
	if err != nil {
		return err
	}
	for _, path := range files {
		err = errors.Join(err, a.pollShard(path))
	}
	return err
}

// pollShard folds one sealed shard past its acked offset. Called with mu
// held.
func (a *Aggregator) pollShard(path string) error {
	shard := filepath.Base(path)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	off, size := a.acked[shard], fi.Size()
	if size < off {
		// Sealed shards are immutable; a shrunk one means the spool was
		// rebuilt under us. Refuse to guess.
		return fmt.Errorf("live: %s: shard shrank below acked offset (%d < %d)", shard, size, off)
	}
	f := Folder{a}
	fold := func(text []byte) {
		st := FoldPayload(f, SpoolSource, text)
		a.mTailed.Add(uint64(st.Records))
		a.mBadLines.Add(uint64(st.Bad))
		a.mOversize.Add(uint64(st.Oversize))
	}
	if strings.HasSuffix(shard, ".gz") && off < size {
		// A gzip stream cannot be entered mid-way: the shard folds whole,
		// from offset 0, and commits at its end.
		if off != 0 {
			return fmt.Errorf("live: %s: gzip shard acked mid-file at %d", shard, off)
		}
		if err := logio.EachGzipChunk(path, logio.SegmentBytes, fold); err != nil {
			return err
		}
		f.Commit(shard, size)
		return nil
	}
	for off < size {
		seg, _, err := logio.ReadSegment(path, off, size, logio.SegmentBytes)
		var long *logio.LongLineError
		switch {
		case errors.As(err, &long):
			a.mOversize.Inc()
			off = long.End
		case err != nil:
			return err
		default:
			fold(seg)
			off += int64(len(seg))
		}
		f.Commit(shard, off)
	}
	return nil
}

// Status is a point-in-time view of the aggregator. The JSON form is the
// federation receiver's status document.
type Status struct {
	Period     string           `json:"period"`
	Records    int              `json:"records"`
	Sources    map[string]int   `json:"sources"` // source -> retained records
	Acked      map[string]int64 `json:"acked"`   // input stream -> folded offset
	Pending    int              `json:"pending_segments"`
	Stragglers int              `json:"stragglers"`
	Published  bool             `json:"published"`
}

// Status returns the aggregator's current state.
func (a *Aggregator) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Status{
		Period:     a.win.Period(),
		Records:    a.win.Records(),
		Sources:    a.win.RecordsBySource(),
		Acked:      maps.Clone(a.acked),
		Pending:    a.pending,
		Stragglers: a.win.Stragglers(),
		Published:  a.published,
	}
}

// Refresh reports what one tick did.
type Refresh struct {
	// Published is false when the tick found nothing new and left the
	// current generation in place.
	Published bool
	// Generation is the published generation (zero when !Published).
	Generation snapshot.Generation
	// NewRecords is how many records were folded since the previous
	// publish, stragglers included (0 when !Published).
	NewRecords int
	// WindowRecords is the record count of the window after the tick.
	WindowRecords int
	// Entries is the published map's prefix count (0 when !Published).
	Entries int
}

// Tick polls the local spool (when configured), then drains the window
// into a new generation: it snapshots the merged aggregate, the window
// state and the input positions under the lock (with draining set, so no
// fold can slip between the snapshot and the publish), builds the map, and
// publishes map, checkpoint and metadata atomically. Once the generation
// is live, acked offsets become durable. A tick with nothing folded since
// the last publish publishes nothing — unless the store is still empty, in
// which case a first (possibly empty) generation goes out so the serving
// side has something to load. A spool poll that fails still publishes what
// it folded: the Refresh then comes back with the poll's error.
func (a *Aggregator) Tick() (Refresh, error) {
	start := time.Now()
	a.mTicks.Inc()
	res, err := a.tick()
	if err != nil {
		a.mErrors.Inc()
	}
	if res.Published {
		a.mPublish.Inc()
		a.hRefresh.Observe(time.Since(start).Seconds())
	}
	return res, err
}

func (a *Aggregator) tick() (Refresh, error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return Refresh{}, errors.New("live: tick already in progress")
	}
	// A poll that fails part-way still publishes what it folded; the
	// tick reports the failure alongside.
	perr := a.poll()
	a.observe()
	if a.pending == 0 && a.published {
		res := Refresh{WindowRecords: a.win.Records()}
		a.mu.Unlock()
		return res, perr
	}
	a.draining = true
	folds, fresh := a.pending, a.fresh
	t := time.Now()
	agg := a.win.Merged()
	a.hMerge.Observe(time.Since(t).Seconds())
	period := a.win.Period()
	dayFirst, dayLast, _ := a.win.DayRange()
	acked := maps.Clone(a.acked)
	t = time.Now()
	state := a.encodeCheckpoint(acked)
	a.hCheckpoint.Observe(time.Since(t).Seconds())
	windowRecords := a.win.Records()
	a.mu.Unlock()

	gen, entries, err := a.publish(agg, period, dayFirst, dayLast, state)

	a.mu.Lock()
	a.draining = false
	if err == nil {
		a.published = true
		a.pending -= folds
		a.fresh -= fresh
		maps.Copy(a.durable, acked)
		a.gBlocks.Set(int64(agg.Blocks()))
		a.observe()
	}
	a.mu.Unlock()
	if err != nil {
		return Refresh{}, errors.Join(perr, err)
	}
	if _, err := a.cfg.Store.Prune(a.cfg.Keep); err != nil {
		// Retention is housekeeping; the new generation is already live.
		a.cfg.Logf("live: prune: %v", err)
	}
	return Refresh{
		Published:     true,
		Generation:    gen,
		NewRecords:    fresh,
		WindowRecords: windowRecords,
		Entries:       entries,
	}, perr
}

// encodeCheckpoint returns StateFile's contents for the window and the
// given input positions: byte for byte json.Marshal(checkpoint{...}) plus
// a newline, written in one pass. Called with mu held.
func (a *Aggregator) encodeCheckpoint(acked map[string]int64) []byte {
	dst := make([]byte, 0, a.stateLen+a.stateLen/8)
	dst = append(dst, `{"format":`...)
	dst = beacon.AppendJSONString(dst, stateFormat)
	dst = append(dst, `,"window":`...)
	dst = a.win.appendState(dst)
	dst = append(dst, `,"acked":`...)
	dst = appendAcked(dst, acked)
	dst = append(dst, "}\n"...)
	a.stateLen = len(dst)
	return dst
}

// appendAcked appends acked as encoding/json writes a map: keys sorted,
// nil as null.
func appendAcked(dst []byte, m map[string]int64) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	for i, k := range slices.Sorted(maps.Keys(m)) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = beacon.AppendJSONString(dst, k)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, m[k], 10)
	}
	return append(dst, '}')
}

// publish builds the map from a drained aggregate and writes checkpoint,
// map and metadata into one staged generation.
func (a *Aggregator) publish(agg *beacon.Aggregate, period, dayFirst, dayLast string, state []byte) (snapshot.Generation, int, error) {
	t := time.Now()
	m, err := a.build.Build(agg, period)
	a.hBuild.Observe(time.Since(t).Seconds())
	if err != nil {
		return snapshot.Generation{}, 0, err
	}
	t = time.Now()
	gen, err := a.cfg.Store.Publish(func(dir string) error {
		if err := os.WriteFile(filepath.Join(dir, StateFile), state, 0o644); err != nil {
			return err
		}
		return history.WriteGeneration(dir, m, dayFirst, dayLast)
	})
	a.hWrite.Observe(time.Since(t).Seconds())
	if err != nil {
		return snapshot.Generation{}, 0, err
	}
	return gen, m.Len(), nil
}

// Run ticks immediately, then on every interval until ctx is done. Tick
// errors are logged and counted, not fatal: a transient spool or disk
// failure must not kill the aggregation plane.
func (a *Aggregator) Run(ctx context.Context) {
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		res, err := a.Tick()
		if err != nil {
			a.cfg.Logf("live: refresh: %v", err)
		}
		if res.Published {
			a.cfg.Logf("live: published %s: %d entries from %d window records (+%d new)",
				res.Generation.Name(), res.Entries, res.WindowRecords, res.NewRecords)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
