package server

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"time"

	"netcache/internal/cluster"
)

// Replica reconciler.
//
// Every value is content-addressed and immutable, so keeping replicas in
// step is a set problem: each node makes sure that every peer holds the
// keys this node holds that the current ring places on that peer, and
// pushes whatever is missing with PUT /v1/result/{key}. That one push
// covers every way a replica goes missing:
//
//   - a join or removal moves part of the key space to new owners;
//   - a decommissioned node's ring places none of its keys on itself, so
//     it pushes every key away (drain-then-leave);
//   - a recompute fallback on a non-replica only stores the result
//     locally, and the next pass delivers it to the owner;
//   - a replica that was down, or lost data, lacks keys its peers hold.
//
// The opposite direction (keys a peer holds that this node lacks) is the
// peer's own reconciler's job, so nothing is ever pulled.
//
// A pass takes one Store.Keys snapshot and buckets, per peer P, the keys
// the ring places on P into 16 ranges by first hex nibble. It asks P once
// for all 16 range digests (XOR + count over the keys P holds that the
// ring places on both P and the asker) and fetches P's key list for a
// range only when the digests differ, or when the range holds keys the
// asker does not replicate itself (digests cannot speak for those). The
// (local, remote) digest pair of every range confirmed in full is
// remembered per (peer, range, epoch), so on a converged cluster a pass
// costs one digest request per peer and nothing else.
//
// The peer answers from its own ring, which during gossip may be an epoch
// behind or ahead of the asker's. That costs at most a list fetch or a
// duplicate push, never a missed one: equal digests still mean the peer
// holds the same keys, and a key absent from its list is pushed.
//
// The loop runs on every membership adoption and every RepairInterval. A
// pass is Done when it confirmed every range of every peer at the
// current epoch with zero errors; a down peer that should hold some of
// our keys is an error, so the periodic pass is also the retry schedule.

// reconcileRanges buckets keys by their first hex nibble.
const reconcileRanges = 16

// RangeDigest summarizes a key set: its size and the XOR of its keys'
// leading 64 bits.
type RangeDigest struct {
	Count  int    `json:"count"`
	Digest uint64 `json:"digest"`
}

func (d *RangeDigest) add(key string) {
	d.Count++
	d.Digest ^= keyDigest(key)
}

// DigestResponse is the GET /v1/cluster/digest body: the responder's
// digest of every range.
type DigestResponse struct {
	Ranges [reconcileRanges]RangeDigest `json:"ranges"`
}

// KeysResponse is the GET /v1/cluster/keys body: the keys of one range
// that the responder holds and replicates.
type KeysResponse struct {
	Keys []string `json:"keys"`
}

// RepairStatus is the reconciler's state on GET /v1/cluster. Epoch and
// Done describe the last completed pass; the counters are cumulative.
type RepairStatus struct {
	Epoch uint64 `json:"epoch"`
	// Done reports that the pass confirmed every key this node holds at
	// every live replica the ring places it on. A decommissioned node
	// with Done set at its decommission epoch has drained and can stop.
	Done   bool   `json:"done"`
	Passes uint64 `json:"passes"`
	Pushed uint64 `json:"pushed"`
	Errors uint64 `json:"errors"`
}

// rangeMemo is one confirmed range: the digests both sides had when this
// node last saw the peer hold every key of the range it should.
type rangeMemo struct{ ours, theirs RangeDigest }

type memoKey struct {
	peer string
	rng  int
}

// peerRange is one range of the keys this node holds that the ring
// places on one peer.
type peerRange struct {
	keys   []string
	all    RangeDigest // over keys
	shared RangeDigest // over the keys this node replicates too
}

// keyRange returns the reconciler bucket of a hex key.
func keyRange(key string) int {
	c := key[0]
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

// keyDigest folds one key into a range digest: the first 16 hex chars of
// an SHA-256 key are already uniformly distributed, so their XOR (plus the
// count) detects any single-key set difference.
func keyDigest(key string) uint64 {
	v, _ := strconv.ParseUint(key[:16], 16, 64)
	return v
}

// startReconciler launches the loop: woken by every membership adoption
// and by a jittered RepairInterval timer, never at boot.
func (s *Server) startReconciler() {
	interval := s.cfg.RepairInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(s.base)
	s.repairStop = cancel
	s.repairDone = make(chan struct{})
	s.passSem = make(chan struct{}, 1)
	wake := make(chan struct{}, 1)
	s.cfg.Cluster.OnChange(func(cluster.Membership) {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	go func() {
		defer close(s.repairDone)
		t := time.NewTimer(jitter(interval))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-wake:
			case <-t.C:
			}
			s.ReconcilePass(ctx)
			// Drain a tick that fired during the pass, so a slow pass
			// still leaves a full interval before the next one.
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(jitter(interval))
		}
	}()
}

// stopReconciler cancels a running pass and stops the loop, if started.
// Idempotent.
func (s *Server) stopReconciler() {
	if s.repairStop == nil {
		return
	}
	s.repairStop()
	<-s.repairDone
}

// RepairStatus snapshots the reconciler's state.
func (s *Server) RepairStatus() RepairStatus {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	return s.repair
}

// ReconcilePass runs one pass against every live member and returns how
// many keys it pushed and whether the pass is Done. Passes run one at a
// time; the background loop calls it, and tests and operators may force
// one.
func (s *Server) ReconcilePass(ctx context.Context) (pushed int, done bool) {
	st, cl := s.cfg.Store, s.cfg.Cluster
	if st == nil || cl == nil {
		return 0, false
	}
	select {
	case s.passSem <- struct{}{}:
	case <-ctx.Done():
		return 0, false
	}
	defer func() { <-s.passSem }()
	epoch, ring := cl.View()
	rf, self := cl.Replication(), cl.Self()
	if s.memo == nil || s.memoEpoch != epoch {
		s.memo, s.memoEpoch = make(map[memoKey]rangeMemo), epoch
	}

	byPeer := make(map[string]*[reconcileRanges]peerRange)
	for _, key := range st.Keys() {
		reps := ring.Replicas(key, rf)
		selfIn := slices.Contains(reps, self)
		for _, p := range reps {
			if p == self {
				continue
			}
			if byPeer[p] == nil {
				byPeer[p] = new([reconcileRanges]peerRange)
			}
			pr := &byPeer[p][keyRange(key)]
			pr.keys = append(pr.keys, key)
			pr.all.add(key)
			if selfIn {
				pr.shared.add(key)
			}
		}
	}

	errs := 0
	for _, peer := range ring.Peers() {
		if ctx.Err() != nil || cl.Epoch() != epoch {
			break // shutdown, or a newer ring whose wake-up restarts us
		}
		switch ranges := byPeer[peer]; {
		case ranges == nil: // nothing of ours belongs there
		case !cl.Up(peer):
			errs++
		default:
			n, e := s.reconcilePeer(ctx, epoch, peer, ranges)
			pushed += n
			errs += e
		}
	}
	completed := ctx.Err() == nil && cl.Epoch() == epoch
	done = completed && errs == 0
	s.repairMu.Lock()
	s.repair.Pushed += uint64(pushed)
	s.repair.Errors += uint64(errs)
	if completed {
		s.repair.Epoch, s.repair.Done = epoch, done
		s.repair.Passes++
	}
	s.repairMu.Unlock()
	if pushed > 0 || errs > 0 {
		s.cfg.Log.Printf("repair: epoch %d pass: %d pushed, %d errors", epoch, pushed, errs)
	}
	return pushed, done
}

// reconcilePeer confirms every range of one peer, pushing the keys it
// lacks, and returns the pushes and errors. It gives up on the peer at
// the first transport failure: the next pass retries.
func (s *Server) reconcilePeer(ctx context.Context, epoch uint64, peer string, ranges *[reconcileRanges]peerRange) (pushed, errs int) {
	c := s.peerClient(peer)
	remote, err := c.digests(ctx, s.cfg.Cluster.Self())
	if err != nil {
		return 0, 1
	}
	var perKeyDelay time.Duration
	if s.cfg.RebalanceRate > 0 {
		perKeyDelay = time.Second / time.Duration(s.cfg.RebalanceRate)
	}
	for rng := range ranges {
		if ctx.Err() != nil || s.cfg.Cluster.Epoch() != epoch {
			return pushed, errs // the pass reports itself incomplete
		}
		pr := &ranges[rng]
		theirs := remote.Ranges[rng]
		mk := memoKey{peer, rng}
		if pr.all.Count == 0 || (pr.all == pr.shared && pr.shared == theirs) || s.memo[mk] == (rangeMemo{pr.all, theirs}) {
			continue // nothing to push, both sides hold the same set, or confirmed before
		}
		list, err := c.rangeKeys(ctx, rng)
		if err != nil {
			return pushed, errs + 1
		}
		has := make(map[string]bool, len(list.Keys))
		for _, k := range list.Keys {
			has[k] = true
		}
		clean := true
		for _, key := range pr.keys {
			if has[key] {
				continue
			}
			body, ok := s.cfg.Store.Get(key)
			if !ok {
				// Unreadable or evicted since the snapshot: a transient
				// read fault heals on the next pass, an eviction drops
				// the key from the next snapshot.
				clean = false
				errs++
				continue
			}
			if err := c.PushResult(ctx, key, body); err != nil {
				errs++
				var se *StatusError
				if !errors.As(err, &se) {
					if ctx.Err() == nil {
						s.cfg.Cluster.MarkDown(peer)
					}
					s.cfg.Log.Printf("repair: push %s -> %s: %v", key[:8], peer, err)
					return pushed, errs
				}
				clean = false
				continue
			}
			pushed++
			clean = false // the peer's digest moved; the next pass confirms it
			if perKeyDelay > 0 {
				select {
				case <-time.After(perKeyDelay):
				case <-ctx.Done():
					return pushed, errs
				}
			}
		}
		if clean {
			s.memo[mk] = rangeMemo{pr.all, theirs}
		}
	}
	return pushed, errs
}

// handleDigest serves GET /v1/cluster/digest?peer=P: the digest of every
// range over this node's resident keys that the ring places on both this
// node and P. Chaos-exempt, like the other cluster endpoints.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	const path = "/v1/cluster/digest"
	if !s.clusterGET(w, r, path) {
		return
	}
	peer := r.URL.Query().Get("peer")
	if peer == "" {
		s.writeError(w, path, http.StatusBadRequest, "peer is required")
		return
	}
	cl := s.cfg.Cluster
	ring := cl.Ring()
	var resp DigestResponse
	for _, key := range s.cfg.Store.Keys() {
		reps := ring.Replicas(key, cl.Replication())
		if slices.Contains(reps, cl.Self()) && slices.Contains(reps, peer) {
			resp.Ranges[keyRange(key)].add(key)
		}
	}
	s.writeJSON(w, path, resp)
}

// handleRangeKeys serves GET /v1/cluster/keys?range=R: this node's
// resident keys in range R that the ring places on it, fetched by a peer
// only for ranges its digests cannot confirm.
func (s *Server) handleRangeKeys(w http.ResponseWriter, r *http.Request) {
	const path = "/v1/cluster/keys"
	if !s.clusterGET(w, r, path) {
		return
	}
	rng, err := strconv.Atoi(r.URL.Query().Get("range"))
	if err != nil || rng < 0 || rng >= reconcileRanges {
		s.writeError(w, path, http.StatusBadRequest, "range must be 0..15")
		return
	}
	cl := s.cfg.Cluster
	ring := cl.Ring()
	resp := KeysResponse{Keys: []string{}}
	for _, key := range s.cfg.Store.Keys() {
		if keyRange(key) == rng && slices.Contains(ring.Replicas(key, cl.Replication()), cl.Self()) {
			resp.Keys = append(resp.Keys, key)
		}
	}
	s.writeJSON(w, path, resp)
}

// clusterGET validates what the reconciler endpoints share: GET, on a
// clustered node with a store.
func (s *Server) clusterGET(w http.ResponseWriter, r *http.Request, path string) bool {
	if r.Method != http.MethodGet {
		s.writeError(w, path, http.StatusMethodNotAllowed, "GET only")
		return false
	}
	if s.cfg.Cluster == nil || s.cfg.Store == nil {
		s.writeError(w, path, http.StatusNotFound, "not clustered")
		return false
	}
	return true
}
