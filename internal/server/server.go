// Package server is the long-running query-serving surface over published
// disassociated datasets — the deployment Section 6 of the paper implies and
// the ROADMAP's "serves heavy traffic" north star asks for: a publisher
// loads and anonymizes datasets once, then any number of analysts query
// itemset supports, sample reconstructions and read utility metrics over
// HTTP.
//
// Concurrency model: the registry maps names to immutable snapshots. A
// publish builds the whole snapshot — published forest, inverted index,
// estimator, summary — before the registry pointer is swapped under a short
// write lock; reads grab the pointer under a read lock and then serve
// entirely from immutable state, so queries never contend with each other
// and a re-publish never disturbs in-flight readers of the old snapshot.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"disasso/internal/core"
	"disasso/internal/dataset"
	"disasso/internal/metrics"
	"disasso/internal/query"
	"disasso/internal/reconstruct"
	"disasso/internal/shard"

	"math/rand/v2"
)

// Options configures a Server.
type Options struct {
	// MaxBodyBytes bounds upload and request bodies; 0 means 64 MiB.
	MaxBodyBytes int64
	// MaxReconstructions caps the samples of one reconstruction request;
	// 0 means 16.
	MaxReconstructions int
	// TempDir hosts spill files of streamed publishes; "" means the system
	// temp directory.
	TempDir string
	// SupportCacheEntries bounds the per-snapshot support cache (see
	// cache.go): 0 means the default (8192 entries), negative disables
	// caching. Each published snapshot gets its own cache, so a republish
	// invalidates by the same pointer swap that installs the new snapshot.
	SupportCacheEntries int
	// DataDir, when non-empty, makes publications durable: every publish,
	// append, remove writes a snapshot file (atomic temp+rename, see
	// persist.go) under this directory, delete removes it, and Recover
	// repopulates the registry from the files without re-anonymizing or
	// re-indexing anything. "" keeps the server fully in-memory — the
	// historical behavior.
	DataDir string
	// Logf receives server-side log lines (snapshot persistence problems,
	// response-encoding bugs). nil means log.Printf.
	Logf func(format string, args ...any)
}

// Server is the HTTP query service. Create one with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu sync.RWMutex
	// snapshots is the registry. Once a snapshot is installed here it must
	// never be written again — readers serve from it lock-free and hold its
	// pointer across a whole request, so a republish builds a successor and
	// swaps the pointer. The directive below makes immutsnap enforce that.
	//
	//lint:immutable lock-free readers hold installed snapshot pointers across requests
	snapshots map[string]*snapshot
	// locks serializes mutations (publish install, delta republish, delete)
	// per dataset name, so a delta's read-modify-write of the snapshot
	// pointer is atomic against concurrent mutators. Reads never touch these.
	// Entries are refcounted and dropped at zero (lockName/unlockName):
	// without that, every name ever published — including deleted ones —
	// would pin a mutex forever, an unbounded leak under churning names.
	locks map[string]*nameLock
}

// nameLock is one name's mutation mutex plus the number of holders and
// waiters currently referencing it. refs is guarded by Server.mu; the map
// entry is removed only when refs drops to zero, so a goroutine blocked in
// mu.Lock always holds a reference and the mutex it eventually acquires is
// never a stale one that a third goroutine replaced in the map.
type nameLock struct {
	mu   sync.Mutex
	refs int
}

// snapshot is one published dataset with everything needed to serve reads.
// It is immutable after construction. A delta republish builds a complete
// successor snapshot (version+1) and swaps the registry pointer; in-flight
// readers of the old version are never disturbed.
type snapshot struct {
	info    DatasetInfo
	anon    *core.Anonymized
	est     *query.Estimator
	summary core.Summary
	// opts are the effective anonymization options the publication was
	// produced with — persisted in the snapshot file and used to rehydrate
	// delta-republish state after a restart.
	opts core.Options
	// original lazily yields the original dataset; nil when the records were
	// not retained (streamed publishes). In-memory publishes capture the
	// dataset directly; recovered snapshots decode it from the snapshot
	// file's original section on first use (metrics or the first delta).
	original func() (*dataset.Dataset, error)
	// cold marks a snapshot recovered from disk rather than built by a
	// publish in this process; mapped additionally reports that its index
	// slabs are zero-copy views over a file mapping (false on platforms
	// where the reader fell back to a heap read).
	cold   bool
	mapped bool
	// state is the retained delta-republish state; nil for streamed publishes
	// (the streaming engine does not keep records, so such snapshots cannot
	// accept deltas) and for recovered snapshots, which rehydrate it from the
	// persisted original on their first delta. It carries no serving state:
	// every published or delta snapshot builds its index and estimator in
	// full (newSnapshot), and a recovered one reads them from its file.
	state *core.RepubState
	// cache memoizes support estimates for this snapshot only (nil when
	// disabled). It is a mutable field, internally synchronized, and
	// provably transparent: estimates are a pure function of the immutable
	// snapshot, so cached and uncached answers are bit-identical.
	cache *supportCache
	// audit memoizes the cover-problem breach report for this snapshot, on
	// the same per-snapshot-transparency argument as cache (see audit.go).
	audit *auditCell
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name     string `json:"name"`
	K        int    `json:"k"`
	M        int    `json:"m"`
	Records  int    `json:"records"`
	Terms    int    `json:"terms"`
	Clusters int    `json:"clusters"` // top-level cluster nodes
	Streamed bool   `json:"streamed"` // published via the streaming engine
	// Version counts the publications behind this name: 1 for the initial
	// publish, +1 for every replace and every delta republish. Each version is
	// an immutable snapshot; a reader that saw version v keeps serving from it
	// even while v+1 is being installed.
	Version int `json:"version"`
	// ShardRecords is the effective shard cut the publication was produced
	// with — the explicit shardrecords parameter, or the cut a streamed
	// publish derived from its budget. 0 means one global shard. Together
	// with the other parameters it is what a client needs to reproduce the
	// publication byte for byte.
	ShardRecords int `json:"shard_records,omitempty"`
}

// ListEntry is one dataset in the GET /v1/datasets listing: its info plus
// serving-tier facts that are process state rather than publication identity
// (they are deliberately kept out of DatasetInfo so stats responses stay
// byte-identical across a restart).
type ListEntry struct {
	DatasetInfo
	// Cold reports the snapshot was recovered from its on-disk file rather
	// than published by this process.
	Cold bool `json:"cold"`
	// Mapped reports a cold snapshot serving posting reads from a memory
	// mapping of the file (false when the reader fell back to a heap copy).
	Mapped bool `json:"mapped,omitempty"`
}

// ListResponse is the body of GET /v1/datasets.
type ListResponse struct {
	Datasets []ListEntry `json:"datasets"`
}

// StatsResponse is the body of GET /v1/datasets/{name}/stats.
type StatsResponse struct {
	DatasetInfo
	Summary core.Summary `json:"summary"`
}

// SupportRequest is the body of POST /v1/datasets/{name}/support: the
// itemsets to estimate, each a set of term ids.
type SupportRequest struct {
	Itemsets [][]dataset.Term `json:"itemsets"`
}

// ItemsetEstimate is one itemset's three support estimators (Section 6):
// the certain lower bound, the reconstruction upper bound, and the expected
// support under the probabilistic chunk model.
type ItemsetEstimate struct {
	Itemset  []dataset.Term `json:"itemset"`
	Lower    int            `json:"lower"`
	Upper    int            `json:"upper"`
	Expected float64        `json:"expected"`
}

// SupportResponse is the body answering a support request, estimates in
// request order.
type SupportResponse struct {
	Estimates []ItemsetEstimate `json:"estimates"`
}

// ReconstructRequest is the body of POST /v1/datasets/{name}/reconstruct.
type ReconstructRequest struct {
	Samples int    `json:"samples"` // default 1
	Seed    uint64 `json:"seed"`    // default 1
}

// ReconstructResponse carries the sampled reconstructions: datasets of
// records of term ids.
type ReconstructResponse struct {
	Datasets [][][]dataset.Term `json:"datasets"`
}

// MetricsResponse is the body of GET /v1/datasets/{name}/metrics: the
// utility metrics computable against the retained original (Section 6
// conventions; the ranges echo the effective parameters).
type MetricsResponse struct {
	K               int     `json:"k"`
	TopK            int     `json:"top_k"`
	MaxItemsetSize  int     `json:"max_itemset_size"`
	RangeLo         int     `json:"range_lo"`
	RangeHi         int     `json:"range_hi"`
	TermsLost       float64 `json:"terms_lost"`
	TopKDeviationLB float64 `json:"tkd_lower_bound"`
	RelativeErrorLB float64 `json:"re_lower_bound"`
}

// DeltaResponse is the body answering a successful append or remove: the new
// snapshot's info plus what the republish actually recomputed. DirtyShards out
// of TotalShards were re-anonymized; ReplannedShards of those had their plan
// subtree rebuilt in place because the delta flipped a shard-boundary
// decision; FullRepublish reports the fallback for boundary shifts
// replanning could not absorb.
type DeltaResponse struct {
	DatasetInfo
	Appended        int  `json:"appended"`
	Removed         int  `json:"removed"`
	DirtyShards     int  `json:"dirty_shards"`
	TotalShards     int  `json:"total_shards"`
	ReplannedShards int  `json:"replanned_shards"`
	FullRepublish   bool `json:"full_republish"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

const (
	defaultMaxBody  = 64 << 20
	defaultMaxRecon = 16
	maxItemsets     = 10_000

	// Metrics-endpoint work caps (handleMetrics).
	maxMetricsTopK        = 10_000
	maxMetricsItemsetSize = 4
	maxMetricsRangeWidth  = 1_000
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// New returns a Server with the given options.
func New(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBody
	}
	if opts.MaxReconstructions <= 0 {
		opts.MaxReconstructions = defaultMaxRecon
	}
	if opts.SupportCacheEntries == 0 {
		opts.SupportCacheEntries = defaultCacheEntries
	}
	s := &Server{
		opts:      opts,
		snapshots: make(map[string]*snapshot),
		locks:     make(map[string]*nameLock),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/datasets", s.handleList)
	mux.HandleFunc("POST /v1/datasets/{name}", s.handlePublish)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/datasets/{name}/append", s.handleAppend)
	mux.HandleFunc("POST /v1/datasets/{name}/remove", s.handleRemove)
	mux.HandleFunc("GET /v1/datasets/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/datasets/{name}/support", s.handleSupport)
	mux.HandleFunc("GET /v1/datasets/{name}/support", s.handleSupportGet)
	mux.HandleFunc("POST /v1/datasets/{name}/reconstruct", s.handleReconstruct)
	mux.HandleFunc("GET /v1/datasets/{name}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/datasets/{name}/breaches", s.handleBreaches)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// lookup fetches a snapshot pointer; the read lock is held only for the map
// access, never while serving.
func (s *Server) lookup(name string) (*snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn, ok := s.snapshots[name]
	return sn, ok
}

// lockName acquires the mutation mutex of a dataset name, creating the entry
// on first use and counting the reference so unlockName knows when the entry
// is garbage. Lock ordering: the name lock is always taken before s.mu and
// never while holding it (the registration below releases s.mu first).
func (s *Server) lockName(name string) *nameLock {
	s.mu.Lock()
	l, ok := s.locks[name]
	if !ok {
		l = &nameLock{}
		s.locks[name] = l
	}
	l.refs++
	s.mu.Unlock()
	l.mu.Lock()
	return l
}

// unlockName releases a lock acquired by lockName and drops the map entry
// once nobody holds or waits for it.
func (s *Server) unlockName(name string, l *nameLock) {
	l.mu.Unlock()
	s.mu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(s.locks, name)
	}
	s.mu.Unlock()
}

// logf reports a server-side problem through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// writeJSON encodes v into a buffer first, so an encoding failure — a server
// bug, e.g. a response type the encoder rejects — turns into a logged 500
// instead of a silent 200 with a half-written body. Only once the encode has
// succeeded do bytes go to the client; a failed client write at that point
// is the client's problem and is deliberately ignored (the status line is
// already out, nothing can be repaired).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf("disassod: encoding %T response: %v", v, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, "{\n  \"error\": \"internal: response encoding failed\"\n}\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	list := make([]ListEntry, 0, len(s.snapshots))
	for _, sn := range s.snapshots {
		list = append(list, ListEntry{DatasetInfo: sn.info, Cold: sn.cold, Mapped: sn.mapped})
	}
	s.mu.RUnlock()
	slices.SortFunc(list, func(a, b ListEntry) int { return strings.Compare(a.Name, b.Name) })
	s.writeJSON(w, http.StatusOK, ListResponse{Datasets: list})
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", key, v)
	}
	return n, nil
}

// queryUint64 parses an unsigned parameter with a default — the full PRNG
// seed range the CLI's flag.Uint64 accepts, with negatives rejected rather
// than wrapped.
func queryUint64(r *http.Request, key string, def uint64) (uint64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", key, v)
	}
	return n, nil
}

// handlePublish loads the uploaded dataset (text format, one record of
// whitespace-separated integer term ids per line), anonymizes it with the
// parameters given as query values (k, m, maxcluster, seed, shardrecords,
// norefine; stream=1 selects the bounded-memory streaming engine with
// membudget), and registers the published snapshot. Re-publishing an
// existing name needs replace=1.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !nameRe.MatchString(name) {
		s.writeError(w, http.StatusBadRequest, "bad dataset name %q", name)
		return
	}
	q := r.URL.Query()
	k, err1 := queryInt(r, "k", 5)
	m, err2 := queryInt(r, "m", 2)
	maxCluster, err3 := queryInt(r, "maxcluster", 0)
	shardRecords, err4 := queryInt(r, "shardrecords", 0)
	seed, err5 := queryUint64(r, "seed", 1)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := core.Options{
		K: k, M: m, MaxClusterSize: maxCluster, MaxShardRecords: shardRecords,
		Seed: seed, DisableRefine: q.Get("norefine") == "1",
		SafeDisassociation: q.Get("safe") == "1",
	}

	replace := q.Get("replace") == "1"
	if !replace {
		// Fast pre-check so a conflicting upload fails before the expensive
		// anonymization; the insert below re-checks under the write lock.
		if _, exists := s.lookup(name); exists {
			s.writeError(w, http.StatusConflict, "dataset %q already exists (republish with replace=1)", name)
			return
		}
	}

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var (
		sn  *snapshot
		err error
	)
	if q.Get("stream") == "1" {
		var budget int64
		budget, err = dataset.ParseByteSize(q.Get("membudget"))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		sn, err = s.publishStreamed(name, body, opts, budget)
	} else {
		sn, err = s.publishInMemory(name, body, opts)
	}
	if err != nil {
		s.publishError(w, err)
		return
	}

	// The expensive anonymization above needed no lock (it reads nothing
	// shared); only the install is a mutation, serialized per name so the
	// version counter is a clean chain even under concurrent publishes and
	// deltas. The snapshot is persisted before the registry swap: a snapshot
	// the server ever served must already be on disk, so a crash cannot
	// forget a publication it acknowledged.
	//lint:ignore lockscope the per-name lock intentionally serializes the whole install — persist and response included; readers never take it, so holding it across blocking work delays only competing mutators of this name
	lock := s.lockName(name)
	defer s.unlockName(name, lock)
	old, exists := s.lookup(name)
	if exists && !replace {
		s.writeError(w, http.StatusConflict, "dataset %q already exists (republish with replace=1)", name)
		return
	}
	if exists {
		sn.info.Version = old.info.Version + 1
	} else {
		sn.info.Version = 1
	}
	if err := s.persist(sn); err != nil {
		s.logf("disassod: persisting %q: %v", name, err)
		s.writeError(w, http.StatusInternalServerError, "persisting snapshot: %v", err)
		return
	}
	s.mu.Lock()
	s.snapshots[name] = sn
	s.mu.Unlock()
	s.writeJSON(w, http.StatusCreated, sn.info)
}

// internalError marks a failure of the server's own machinery (spill files,
// re-reading its own output) as opposed to a bad request.
type internalError struct{ err error }

func (e internalError) Error() string { return e.err.Error() }
func (e internalError) Unwrap() error { return e.err }

// publishError maps a failed publish to a status: oversized bodies are 413,
// server-side machinery failures are 500, everything else (parse errors,
// k/m validation) is a 400.
func (s *Server) publishError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	var internal internalError
	if errors.As(err, &internal) {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.writeError(w, http.StatusBadRequest, "%v", err)
}

// publishInMemory runs the standard pipeline with retained delta-republish
// state (the published bytes are identical to a plain Anonymize), keeping the
// original for the metrics endpoint and the state for the next delta.
func (s *Server) publishInMemory(name string, body io.Reader, opts core.Options) (*snapshot, error) {
	d, err := dataset.ReadIDs(body)
	if err != nil {
		return nil, err
	}
	a, st, err := core.AnonymizeWithState(d, opts)
	if err != nil {
		return nil, err
	}
	return newSnapshot(name, a, st, d, opts, s.opts.SupportCacheEntries), nil
}

// publishStreamed runs the sharded streaming engine: the upload is
// anonymized in bounded memory (spilling to TempDir) and the publication
// re-read from its compact binary form. The original records are not
// retained — that is the point of streaming — so the snapshot serves
// support, reconstruction and stats but not original-vs-published metrics.
func (s *Server) publishStreamed(name string, body io.Reader, opts core.Options, budget int64) (*snapshot, error) {
	// The engine's serialized output goes through a spill file, not an
	// in-memory buffer: buffering it would reintroduce exactly the
	// unbounded working set stream publishing exists to avoid.
	spill, err := os.CreateTemp(s.opts.TempDir, "disassod-publish-*.bin")
	if err != nil {
		return nil, internalError{err}
	}
	defer func() {
		// Cleanup of a temp file whose bytes were already consumed by
		// ReadBinary; a close failure here cannot lose published data.
		_ = spill.Close()
		_ = os.Remove(spill.Name())
	}()
	bw := bufio.NewWriter(spill)
	st, err := shard.Anonymize(body, bw, shard.Options{
		Core:         opts,
		MemoryBudget: budget,
		TempDir:      s.opts.TempDir,
	})
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, internalError{err}
	}
	if _, err := spill.Seek(0, io.SeekStart); err != nil {
		return nil, internalError{err}
	}
	a, err := core.ReadBinary(bufio.NewReader(spill))
	if err != nil {
		return nil, internalError{fmt.Errorf("re-reading streamed publication: %w", err)}
	}
	sn := newSnapshot(name, a, nil, nil, opts, s.opts.SupportCacheEntries)
	sn.info.Streamed = true
	sn.info.ShardRecords = st.ShardRecords
	return sn, nil
}

// newSnapshot builds the immutable serving state of a publication — summary,
// inverted index and estimator, each built in full — plus the snapshot's own
// empty support cache and audit cell. st and original are the retained
// delta-republish state and the original records of an in-memory publish or
// delta; the info then reports the state's effective shard cut. A streamed
// publish passes nil for both and fills in Streamed and its cut itself.
func newSnapshot(name string, a *core.Anonymized, st *core.RepubState, original *dataset.Dataset, opts core.Options, cacheEntries int) *snapshot {
	sum := a.Stats()
	sn := &snapshot{
		cache: newSupportCache(cacheEntries),
		audit: newAuditCell(),
		info: DatasetInfo{
			Name: name, K: a.K, M: a.M,
			Records:  sum.Records,
			Terms:    sum.DistinctTerms,
			Clusters: len(a.Clusters),
		},
		anon:    a,
		est:     query.NewEstimator(a),
		summary: sum,
		opts:    opts,
		state:   st,
	}
	if st != nil {
		sn.info.ShardRecords = st.Options().MaxShardRecords
	}
	if original != nil {
		sn.original = func() (*dataset.Dataset, error) { return original, nil }
	}
	return sn
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	//lint:ignore lockscope the per-name lock intentionally covers artifact removal and the response; readers never take it, so only competing mutators of this name wait
	lock := s.lockName(name)
	defer s.unlockName(name, lock)
	if _, ok := s.lookup(name); !ok {
		s.writeError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	// Artifact first, registry second: if the file refuses to go the server
	// keeps serving the dataset (still consistent — present both on disk and
	// in memory) rather than resurrecting it on the next restart.
	if err := s.removeArtifact(name); err != nil {
		s.logf("disassod: deleting snapshot file of %q: %v", name, err)
		s.writeError(w, http.StatusInternalServerError, "deleting snapshot file: %v", err)
		return
	}
	s.mu.Lock()
	delete(s.snapshots, name)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleAppend republishes the dataset with the uploaded records (text
// format, like publish) appended to the end of the logical dataset.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.handleDelta(w, r, false)
}

// handleRemove republishes the dataset with the uploaded records removed —
// each line removes one occurrence of that record (bag semantics); a record
// not present fails the whole delta with 409.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	s.handleDelta(w, r, true)
}

// handleDelta is the shared append/remove implementation: an incremental
// republish that re-anonymizes only the shards the delta touches, builds the
// new version's index and estimator, and installs the result as a new
// immutable snapshot version. Reads racing the delta keep serving the old
// version; the per-name lock only serializes mutators.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request, remove bool) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	d, err := dataset.ReadIDs(body)
	if err != nil {
		s.publishError(w, err)
		return
	}
	if d.Len() == 0 {
		s.writeError(w, http.StatusBadRequest, "empty delta: the body must hold at least one record")
		return
	}
	var delta core.Delta
	if remove {
		delta.Remove = d.Records
	} else {
		delta.Append = d.Records
	}

	//lint:ignore lockscope the per-name lock intentionally covers the whole delta — rehydrate, Apply, persist, response — so concurrent deltas to one name serialize; readers never take it
	lock := s.lockName(name)
	defer s.unlockName(name, lock)
	sn, ok := s.lookup(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no dataset %q", name)
		return
	}
	if sn.state == nil && sn.original == nil {
		s.writeError(w, http.StatusConflict,
			"dataset %q was published via the streaming engine; the records needed for delta republish were not retained (republish it non-streamed to enable append/remove)", name)
		return
	}
	state := sn.state
	if state == nil {
		// A recovered snapshot carries the original records but not the live
		// republish state (the shard plan and its shards). Rehydrate it
		// once by re-running the stateful pipeline over the persisted
		// original with the persisted options — byte-identical to the
		// pre-restart publication by the delta-republish determinism
		// guarantee — then apply the delta to it as usual. This is the one
		// place recovery pays anonymization cost, and only on the first
		// mutation of a recovered name, never on the read path.
		if state, err = s.rehydrate(sn); err != nil {
			s.logf("disassod: rehydrating republish state of %q: %v", name, err)
			s.writeError(w, http.StatusInternalServerError, "rehydrating republish state: %v", err)
			return
		}
	}
	a, st, stats, err := state.Apply(delta)
	if err != nil {
		if errors.Is(err, core.ErrRecordNotFound) {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	next := newSnapshot(name, a, st, dataset.FromRecords(st.Records()), sn.opts, s.opts.SupportCacheEntries)
	next.info.Version = sn.info.Version + 1

	if err := s.persist(next); err != nil {
		s.logf("disassod: persisting %q: %v", name, err)
		s.writeError(w, http.StatusInternalServerError, "persisting snapshot: %v", err)
		return
	}
	s.mu.Lock()
	s.snapshots[name] = next
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, DeltaResponse{
		DatasetInfo:     next.info,
		Appended:        stats.Appended,
		Removed:         stats.Removed,
		DirtyShards:     stats.DirtyShards,
		TotalShards:     stats.TotalShards,
		ReplannedShards: stats.ReplannedShards,
		FullRepublish:   stats.FullRepublish,
	})
}

// snapshotOr404 resolves the {name} path value, answering 404 itself when
// the dataset is unknown.
func (s *Server) snapshotOr404(w http.ResponseWriter, r *http.Request) *snapshot {
	name := r.PathValue("name")
	sn, ok := s.lookup(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, "no dataset %q", name)
		return nil
	}
	return sn
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr404(w, r)
	if sn == nil {
		return
	}
	s.writeJSON(w, http.StatusOK, StatsResponse{DatasetInfo: sn.info, Summary: sn.summary})
}

func (s *Server) handleSupport(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr404(w, r)
	if sn == nil {
		return
	}
	var req SupportRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.publishError(w, err)
		return
	}
	if len(req.Itemsets) > maxItemsets {
		s.writeError(w, http.StatusBadRequest, "%d itemsets exceed the per-request cap of %d", len(req.Itemsets), maxItemsets)
		return
	}
	resp := SupportResponse{Estimates: make([]ItemsetEstimate, len(req.Itemsets))}
	for i, terms := range req.Itemsets {
		resp.Estimates[i] = estimateOne(sn, dataset.NewRecord(terms...))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSupportGet answers a single itemset given as a comma-separated term
// list: GET .../support?itemset=3,17,42.
func (s *Server) handleSupportGet(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr404(w, r)
	if sn == nil {
		return
	}
	raw := r.URL.Query().Get("itemset")
	if raw == "" {
		// A missing/mistyped parameter must not silently degrade into the
		// empty itemset (whose "estimate" is the total record count); the
		// batch POST endpoint serves empty itemsets for callers who mean it.
		s.writeError(w, http.StatusBadRequest, "missing itemset parameter (e.g. ?itemset=3,17)")
		return
	}
	var terms []dataset.Term
	for _, f := range strings.Split(raw, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 32)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad itemset term %q", f)
			return
		}
		terms = append(terms, dataset.Term(n))
	}
	s.writeJSON(w, http.StatusOK, estimateOne(sn, dataset.NewRecord(terms...)))
}

// estimateOne runs one itemset through the snapshot's support cache (backed
// by the indexed estimator).
func estimateOne(sn *snapshot, itemset dataset.Record) ItemsetEstimate {
	est := sn.support(itemset)
	return ItemsetEstimate{
		Itemset:  itemset,
		Lower:    est.Lower,
		Upper:    est.Upper,
		Expected: est.Expected,
	}
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr404(w, r)
	if sn == nil {
		return
	}
	req := ReconstructRequest{Samples: 1, Seed: 1}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		s.publishError(w, err)
		return
	}
	if len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req.Samples < 1 || req.Samples > s.opts.MaxReconstructions {
		s.writeError(w, http.StatusBadRequest, "samples must be in [1, %d]", s.opts.MaxReconstructions)
		return
	}
	rng := rand.New(rand.NewPCG(req.Seed, 0x5EED))
	resp := ReconstructResponse{Datasets: make([][][]dataset.Term, req.Samples)}
	for i, d := range reconstruct.SampleMany(sn.anon, req.Samples, rng) {
		recs := make([][]dataset.Term, len(d.Records))
		for j, rec := range d.Records {
			recs[j] = rec
		}
		resp.Datasets[i] = recs
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics computes the utility metrics of the publication against the
// retained original: tlost, tKd-a and re-a under the Section 7.1
// conventions, parameterized by k, topk, size, lo, hi query values.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshotOr404(w, r)
	if sn == nil {
		return
	}
	if sn.original == nil {
		s.writeError(w, http.StatusConflict,
			"dataset %q was published via the streaming engine; the original records were not retained, so original-vs-published metrics are unavailable", sn.info.Name)
		return
	}
	original, err := sn.original()
	if err != nil {
		s.logf("disassod: decoding original records of %q: %v", sn.info.Name, err)
		s.writeError(w, http.StatusInternalServerError, "decoding retained original records: %v", err)
		return
	}
	k, err1 := queryInt(r, "k", sn.info.K)
	topK, err2 := queryInt(r, "topk", 200)
	maxSize, err3 := queryInt(r, "size", 2)
	lo, err4 := queryInt(r, "lo", 200)
	hi, err5 := queryInt(r, "hi", 220)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Bound per-request mining work like every other endpoint bounds its
	// own: Apriori candidate generation is combinatorial in the itemset
	// size and the top-K threshold drops toward support 1 as K grows.
	switch {
	case k < 1:
		s.writeError(w, http.StatusBadRequest, "k must be ≥ 1")
		return
	case topK < 1 || topK > maxMetricsTopK:
		s.writeError(w, http.StatusBadRequest, "topk must be in [1, %d]", maxMetricsTopK)
		return
	case maxSize < 1 || maxSize > maxMetricsItemsetSize:
		s.writeError(w, http.StatusBadRequest, "size must be in [1, %d]", maxMetricsItemsetSize)
		return
	case lo < 0 || hi < lo:
		// Ordered non-negative bounds first, so the width subtraction below
		// cannot wrap around and slip past the cap.
		s.writeError(w, http.StatusBadRequest, "term range [%d, %d) must satisfy 0 ≤ lo ≤ hi", lo, hi)
		return
	case hi-lo > maxMetricsRangeWidth:
		s.writeError(w, http.StatusBadRequest, "term range wider than %d", maxMetricsRangeWidth)
		return
	}
	terms := metrics.RangeTerms(original, lo, hi)
	s.writeJSON(w, http.StatusOK, MetricsResponse{
		K: k, TopK: topK, MaxItemsetSize: maxSize, RangeLo: lo, RangeHi: hi,
		TermsLost:       metrics.TermsLost(original, sn.anon, k),
		TopKDeviationLB: metrics.TopKDeviationLowerBound(original.Records, sn.anon, topK, maxSize),
		RelativeErrorLB: metrics.RelativeErrorLowerBound(original.Records, sn.anon, terms),
	})
}
