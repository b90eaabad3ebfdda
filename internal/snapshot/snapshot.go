// Package snapshot is a versioned on-disk snapshot store: the publish side
// of a serving stack that separates index *build* from index *serve*. A
// builder (the live aggregator) writes each new dataset generation into a
// staging directory, the store renames it into place and flips a CURRENT
// pointer atomically, and any number of serving processes poll CURRENT and
// hot-swap when it moves. Old generations are pruned by count.
//
// On-disk layout under the store root:
//
//	CURRENT              — one line, the name of the live generation
//	gen-00000042/        — one complete, immutable generation
//	  cellmap.jsonl      —   (caller-defined files)
//	  federation.json
//	.tmp-gen-00000043/   — staging for an in-flight publish
//
// Crash-recovery invariants:
//
//  1. A generation directory named gen-N exists only in complete form: all
//     files are written and synced inside .tmp-gen-N first, and the whole
//     directory is renamed into place in one atomic step.
//  2. CURRENT is replaced by rename, never rewritten in place, and only
//     after the generation it names is fully published. Readers therefore
//     never observe a CURRENT that points at a partial generation.
//  3. Leftover .tmp-* directories are crash debris; Open sweeps them. A
//     gen-N directory newer than CURRENT (crash between the two renames)
//     is inert: readers ignore it, and the next publish allocates above it.
package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cellspot/internal/faultline"
)

const (
	currentFile = "CURRENT"
	genPrefix   = "gen-"
	tmpPrefix   = ".tmp-"
)

// Generation names one published dataset version.
type Generation struct {
	// Seq is the monotonically increasing generation number.
	Seq uint64
	// Dir is the generation's directory path.
	Dir string
}

// Name returns the directory base name, e.g. "gen-00000042".
func (g Generation) Name() string { return genName(g.Seq) }

// Path returns the path of a file inside the generation directory.
func (g Generation) Path(file string) string { return filepath.Join(g.Dir, file) }

func genName(seq uint64) string { return fmt.Sprintf("%s%08d", genPrefix, seq) }

func parseGenName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, genPrefix)
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Store is a directory of numbered generations plus a CURRENT pointer.
// Publish and Prune serialize against each other in-process; Current is
// safe to call concurrently from any number of goroutines or processes.
type Store struct {
	dir  string
	fs   faultline.FS
	mu   sync.Mutex
	pins map[uint64]int // generation seq -> in-process pin count
}

// Open creates (if needed) and opens a store rooted at dir, sweeping any
// staging directories left behind by a crashed publish.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, faultline.OS())
}

// OpenFS is Open with every filesystem operation routed through fs — the
// hook the crash-consistency matrix and the chaos suite use to inject
// write/fsync/rename failures and crash points into publishes.
func OpenFS(dir string, fs faultline.FS) (*Store, error) {
	if fs == nil {
		fs = faultline.OS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: open %s: %w", dir, err)
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			if err := fs.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("snapshot: sweep staging %s: %w", e.Name(), err)
			}
		}
	}
	return &Store{dir: dir, fs: fs, pins: make(map[uint64]int)}, nil
}

// Pin marks a generation as in use by an in-process reader, shielding it
// from Prune until a matching Unpin. It returns the generation and true when
// the directory exists on disk; a pruned or never-published seq returns
// ok=false and takes no pin. Pins serialize against Prune on the store
// mutex, so a successful Pin guarantees the directory outlives the reader:
// a reader that pins, reads, and unpins never observes a half-removed
// generation.
func (s *Store) Pin(seq uint64) (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := filepath.Join(s.dir, genName(seq))
	if fi, err := s.fs.Stat(dir); err != nil || !fi.IsDir() {
		return Generation{}, false
	}
	s.pins[seq]++
	return Generation{Seq: seq, Dir: dir}, true
}

// Unpin releases one pin taken by Pin. Unpinning a seq with no outstanding
// pins is a no-op.
func (s *Store) Unpin(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[seq] <= 1 {
		delete(s.pins, seq)
		return
	}
	s.pins[seq]--
}

// Current returns the generation CURRENT points at. ok is false when the
// store has never published (no CURRENT file); a CURRENT that names a
// missing or malformed generation is corruption and returns an error.
func (s *Store) Current() (gen Generation, ok bool, err error) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, currentFile))
	if os.IsNotExist(err) {
		return Generation{}, false, nil
	}
	if err != nil {
		return Generation{}, false, fmt.Errorf("snapshot: read CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(raw))
	seq, valid := parseGenName(name)
	if !valid {
		return Generation{}, false, fmt.Errorf("snapshot: CURRENT names %q, not a generation", name)
	}
	dir := filepath.Join(s.dir, name)
	if fi, err := s.fs.Stat(dir); err != nil || !fi.IsDir() {
		return Generation{}, false, fmt.Errorf("snapshot: CURRENT names %s, which does not exist", name)
	}
	return Generation{Seq: seq, Dir: dir}, true, nil
}

// Generations lists every fully published generation in ascending sequence
// order, including any newer than CURRENT (publish crash debris).
func (s *Store) Generations() ([]Generation, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: list %s: %w", s.dir, err)
	}
	var out []Generation
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if seq, ok := parseGenName(e.Name()); ok {
			out = append(out, Generation{Seq: seq, Dir: filepath.Join(s.dir, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Publish allocates the next generation number, lets write populate its
// staging directory, then atomically renames the directory into place and
// flips CURRENT to it. On any error the staging directory is removed and
// the store is unchanged.
func (s *Store) Publish(write func(stagingDir string) error) (Generation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	gens, err := s.Generations()
	if err != nil {
		return Generation{}, err
	}
	seq := uint64(1)
	if n := len(gens); n > 0 {
		seq = gens[n-1].Seq + 1
	}
	name := genName(seq)
	staging := filepath.Join(s.dir, tmpPrefix+name)
	if err := s.fs.MkdirAll(staging, 0o755); err != nil {
		return Generation{}, fmt.Errorf("snapshot: stage %s: %w", name, err)
	}
	cleanup := func() { s.fs.RemoveAll(staging) }

	if err := write(staging); err != nil {
		cleanup()
		return Generation{}, fmt.Errorf("snapshot: write %s: %w", name, err)
	}
	if err := s.syncFiles(staging); err != nil {
		cleanup()
		return Generation{}, fmt.Errorf("snapshot: sync %s: %w", name, err)
	}
	final := filepath.Join(s.dir, name)
	if err := s.fs.Rename(staging, final); err != nil {
		cleanup()
		return Generation{}, fmt.Errorf("snapshot: publish %s: %w", name, err)
	}
	if err := s.setCurrent(name); err != nil {
		return Generation{}, err
	}
	s.syncDir(s.dir)
	return Generation{Seq: seq, Dir: final}, nil
}

// setCurrent atomically replaces the CURRENT pointer.
func (s *Store) setCurrent(name string) error {
	tmp := filepath.Join(s.dir, tmpPrefix+currentFile)
	if err := s.writeFileSync(tmp, []byte(name+"\n")); err != nil {
		return fmt.Errorf("snapshot: write CURRENT: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, currentFile)); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("snapshot: flip CURRENT: %w", err)
	}
	return nil
}

// Prune removes old generations, keeping the newest keep of them. The
// generation CURRENT points at (and anything newer) is never removed, so
// keep <= 0 still retains the serving generation. Generations pinned by an
// in-process reader (see Pin) are skipped, not removed — they become
// eligible again on a later Prune after the last Unpin. Returns the number
// of generations removed.
func (s *Store) Prune(keep int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	gens, err := s.Generations()
	if err != nil {
		return 0, err
	}
	cur, ok, err := s.Current()
	if err != nil {
		return 0, err
	}
	removed := 0
	// Candidates are generations strictly older than CURRENT; of the full
	// list, the newest `keep` survive.
	for i, g := range gens {
		if len(gens)-i <= keep {
			break
		}
		if ok && g.Seq >= cur.Seq {
			break
		}
		if s.pins[g.Seq] > 0 {
			continue
		}
		if err := s.fs.RemoveAll(g.Dir); err != nil {
			return removed, fmt.Errorf("snapshot: prune %s: %w", g.Name(), err)
		}
		removed++
	}
	return removed, nil
}

// writeFileSync writes data and syncs it to stable storage before closing.
func (s *Store) writeFileSync(path string, data []byte) error {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncFiles fsyncs every regular file directly inside dir.
func (s *Store) syncFiles(dir string) error {
	entries, err := s.fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := s.fs.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so renames inside it are durable. Best effort:
// some filesystems reject directory fsync, and the rename itself is already
// atomic with respect to readers.
func (s *Store) syncDir(dir string) {
	if f, err := s.fs.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
