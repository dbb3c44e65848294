package serve

// This file implements the scenario registry and incremental solving over
// HTTP. Scenarios are registered once and addressed by content hash;
// mutations create new registry entries linked to their parent, and the
// incremental solve endpoint advances a live hipo.Incremental session
// along those links so a mutate→solve round trip reuses the session's
// discretize task parts and position sweeps instead of re-running the
// pipeline cold. Placements stay bit-identical to a cold solve of the same
// scenario — the registry only changes how much work each solve repeats.

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"hipo"
	"hipo/internal/model"
	"hipo/internal/solvecache"
)

// maxSessionSlots bounds the number of live incremental sessions (one per
// distinct solver-option set). Sessions hold per-position sweep caches, so
// the bound is a memory cap; evicting one only costs the next solve with
// those options a cold rebuild.
const maxSessionSlots = 4

// maxChainHops bounds how many parent links an incremental session will
// replay in one solve; longer gaps fall back to a cold rebuild.
const maxChainHops = 32

// scenarioEntry is one registered scenario. Entries form a forest: a root
// is registered directly, every other entry records the mutation batch
// that transforms its parent into it.
type scenarioEntry struct {
	hash   string
	parent string          // "" for registered roots
	muts   []hipo.Mutation // parent + muts == this scenario
	sc     *hipo.Scenario
}

// sessionSlot is a live incremental session positioned at some registry
// hash. Slots are keyed by solver options; mu serializes solves because
// hipo.Incremental is not safe for concurrent use.
type sessionSlot struct {
	mu   sync.Mutex
	hash string
	inc  *hipo.Incremental
	used uint64 // store.seq at last acquire, for LRU eviction
}

// scenarioStore is the LRU registry plus the session slots.
type scenarioStore struct {
	mu      sync.Mutex
	cap     int
	seq     uint64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	slots   map[string]*sessionSlot
}

func newScenarioStore(capacity int) *scenarioStore {
	if capacity < 1 {
		capacity = 1
	}
	return &scenarioStore{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
		slots:   make(map[string]*sessionSlot, maxSessionSlots),
	}
}

func (st *scenarioStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// get returns the entry and marks it most recently used.
func (st *scenarioStore) get(hash string) (*scenarioEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[hash]
	if !ok {
		return nil, false
	}
	st.ll.MoveToFront(el)
	return el.Value.(*scenarioEntry), true
}

// put inserts the entry unless its hash is already registered (first write
// wins — the scenario bytes are identical by content addressing, and
// keeping the original preserves its parent link). Returns whether the
// entry was new.
func (st *scenarioStore) put(e *scenarioEntry) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[e.hash]; ok {
		st.ll.MoveToFront(el)
		return false
	}
	st.entries[e.hash] = st.ll.PushFront(e)
	for st.ll.Len() > st.cap {
		old := st.ll.Back()
		st.ll.Remove(old)
		delete(st.entries, old.Value.(*scenarioEntry).hash)
	}
	return true
}

// chain returns the mutation batches that advance the scenario at `from`
// to the one at `to`, walking parent links backward from `to`. ok is false
// when the chain is broken (evicted parent), longer than maxChainHops, or
// `from` is not an ancestor.
func (st *scenarioStore) chain(from, to string) (batches [][]hipo.Mutation, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for hops := 0; to != from; hops++ {
		if hops >= maxChainHops {
			return nil, false
		}
		el, found := st.entries[to]
		if !found {
			return nil, false
		}
		e := el.Value.(*scenarioEntry)
		if e.parent == "" {
			return nil, false
		}
		batches = append(batches, e.muts)
		to = e.parent
	}
	// Collected child-first; replay order is oldest batch first.
	for i, j := 0, len(batches)-1; i < j; i, j = i+1, j-1 {
		batches[i], batches[j] = batches[j], batches[i]
	}
	return batches, true
}

// acquireSlot returns the locked session slot for the given options key,
// creating it (and evicting the least recently used slot over capacity)
// as needed. The caller must Unlock the slot's mu.
func (st *scenarioStore) acquireSlot(key string) *sessionSlot {
	st.mu.Lock()
	slot, ok := st.slots[key]
	if !ok {
		if len(st.slots) >= maxSessionSlots {
			var lruKey string
			var lru *sessionSlot
			for k, s := range st.slots {
				if lru == nil || s.used < lru.used {
					lruKey, lru = k, s
				}
			}
			// Dropping the map reference is enough: an in-flight solve on the
			// evicted slot keeps its own pointer and finishes normally.
			delete(st.slots, lruKey)
		}
		slot = &sessionSlot{}
		st.slots[key] = slot
	}
	st.seq++
	slot.used = st.seq
	st.mu.Unlock()
	slot.mu.Lock()
	return slot
}

// scenarioInfo is the registry's description of one entry.
type scenarioInfo struct {
	ScenarioHash string `json:"scenario_hash"`
	Parent       string `json:"parent,omitempty"`
	Mutations    int    `json:"mutations,omitempty"`
	Devices      int    `json:"devices"`
	Obstacles    int    `json:"obstacles"`
}

func infoFor(e *scenarioEntry) scenarioInfo {
	return scenarioInfo{
		ScenarioHash: e.hash,
		Parent:       e.parent,
		Mutations:    len(e.muts),
		Devices:      len(e.sc.Devices),
		Obstacles:    len(e.sc.Obstacles),
	}
}

// handleScenarioRegister registers a scenario and returns its content
// hash: 201 when new, 200 when the hash was already registered.
func (s *Server) handleScenarioRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Scenario *hipo.Scenario `json:"scenario"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if !present(w, "scenario", req.Scenario != nil) {
		return
	}
	if err := req.Scenario.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash, err := req.Scenario.ScenarioHash()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e := &scenarioEntry{hash: hash, sc: req.Scenario}
	status := http.StatusOK
	if s.scenarios.put(e) {
		status = http.StatusCreated
	}
	writeJSON(w, status, infoFor(e))
}

func (s *Server) handleScenarioGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.scenarios.get(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("scenario %q is not registered", r.PathValue("hash")))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		scenarioInfo
		Scenario *hipo.Scenario `json:"scenario"`
	}{infoFor(e), e.sc})
}

// handleScenarioMutate applies a mutation batch to a registered scenario
// and registers the result as a child entry, chaining old → new hash.
func (s *Server) handleScenarioMutate(w http.ResponseWriter, r *http.Request) {
	parent, ok := s.scenarios.get(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("scenario %q is not registered", r.PathValue("hash")))
		return
	}
	var req struct {
		Mutations []hipo.Mutation `json:"mutations"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, model.Errorf("mutations", "at least one mutation is required"))
		return
	}
	// An incremental session validates each mutation against the evolving
	// scenario; default options suffice since no solve runs here.
	inc, err := parent.sc.NewIncremental()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := inc.Apply(req.Mutations...); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	child := inc.Scenario()
	hash, err := child.ScenarioHash()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	e := &scenarioEntry{hash: hash, parent: parent.hash, muts: req.Mutations, sc: child}
	status := http.StatusOK
	if s.scenarios.put(e) {
		status = http.StatusCreated
	}
	writeJSON(w, status, infoFor(e))
}

// scenarioSolveResponse wraps the placement with the hash it solves and,
// for solves that ran the pipeline, the session's cumulative cache
// counters. Stats are omitted on solve-cache hits (nothing ran).
type scenarioSolveResponse struct {
	ScenarioHash string                 `json:"scenario_hash"`
	Placement    json.RawMessage        `json:"placement"`
	Stats        *hipo.IncrementalStats `json:"stats,omitempty"`
}

// handleScenarioSolve solves a registered scenario through the
// incremental machinery. Solves run synchronously: sessions are long-lived
// and advance by replaying the mutation chain from wherever they last
// solved, so queueing them as detached jobs would serialize on the slot
// anyway. Because nothing bounds a synchronous solve's work yet, only the
// default lazy greedy variant is served; sessions accept the per-type and
// continuous variants too, but here they answer 400.
func (s *Server) handleScenarioSolve(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	e, ok := s.scenarios.get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("scenario %q is not registered", hash))
		return
	}
	var req struct {
		Options SolveOptions `json:"options"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := req.Options.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Options.PerType || req.Options.Continuous {
		writeError(w, http.StatusBadRequest,
			model.Errorf("options", "incremental solve supports only the default lazy greedy variant"))
		return
	}

	optsJSON, err := json.Marshal(req.Options)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	key := solvecache.Key("/v1/scenarios/solve", hash, string(optsJSON))
	if body, ok := s.cache.Get(key); ok {
		s.cacheHits.Inc()
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, scenarioSolveResponse{
			ScenarioHash: hash, Placement: json.RawMessage(body),
		})
		return
	}
	s.cacheMisses.Inc()

	// Sessions are keyed by the solver-relevant options (trace shapes only
	// the response body, not the solve).
	slotKey := fmt.Sprintf("eps=%v;workers=%d", req.Options.Eps, req.Options.Workers)
	slot := s.scenarios.acquireSlot(slotKey)
	defer slot.mu.Unlock()

	if slot.inc == nil || slot.hash != hash {
		advanced := false
		if slot.inc != nil {
			if batches, ok := s.scenarios.chain(slot.hash, hash); ok {
				advanced = true
				for _, muts := range batches {
					if err := slot.inc.Apply(muts...); err != nil {
						// The registry accepted these mutations once; failing
						// here means the slot drifted — rebuild cold.
						advanced = false
						break
					}
				}
			}
		}
		if advanced {
			s.incAdvanced.Inc()
			slot.hash = hash
		} else {
			opts := []hipo.Option{hipo.WithWorkers(req.Options.Workers)}
			if req.Options.Eps != 0 {
				opts = append(opts, hipo.WithEps(req.Options.Eps))
			}
			inc, err := e.sc.NewIncremental(opts...)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			s.incRebuilt.Inc()
			slot.inc, slot.hash = inc, hash
		}
	}

	placement, err := slot.inc.Solve()
	if err != nil {
		// The session may hold partial state after a failed solve; drop it so
		// the next request rebuilds cold rather than reusing a broken slot.
		slot.inc = nil
		writeSolveError(w, err)
		return
	}
	if !req.Options.Trace {
		placement.Trace = nil
	}
	body, err := json.Marshal(placement)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.cache.Put(key, body)
	stats := slot.inc.Stats()
	w.Header().Set("X-Cache", "miss")
	writeJSON(w, http.StatusOK, scenarioSolveResponse{
		ScenarioHash: hash, Placement: body, Stats: &stats,
	})
}
