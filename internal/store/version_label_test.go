package store

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"sigmund/internal/catalog"
	"sigmund/internal/dfs"
	"sigmund/internal/serving"
)

// labelledGen returns the generation an integritySnapshot answer to
// viewCtx() came from: its top item is 100+gen.
func labelledGen(recs []serving.Recommendation) int64 {
	if len(recs) == 0 {
		return -1
	}
	return int64(recs[0].Item) - 100
}

// TestReplicaLabelsAnswerWithAnsweringGeneration: while generations are
// committed into a replica's engine back to back, every answer it returns
// carries the generation of the snapshot that produced it — never the one
// committed a moment later.
func TestReplicaLabelsAnswerWithAnsweringGeneration(t *testing.T) {
	snaps := make([]*serving.Snapshot, 64)
	for g := range snaps {
		snaps[g] = integritySnapshot(int64(g), "shop")
	}
	rep := newReplica(0, 0, Options{})
	rep.srv.Publish(snaps[0])

	var done atomic.Bool
	var wg, ready sync.WaitGroup
	var answers atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for !done.Load() {
				recs, _, gen, err := rep.get(context.Background(), "shop", viewCtx(), 2, false)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if got := labelledGen(recs); got != gen {
					t.Errorf("answer from generation %d labelled %d", got, gen)
					done.Store(true)
				}
				answers.Add(1)
			}
		}()
	}
	// Publish only once every reader is running, and keep publishing until
	// they have answered plenty of requests beside the commits.
	ready.Wait()
	for g := 1; answers.Load() < 20000 && !done.Load(); g++ {
		rep.srv.Publish(snaps[g%len(snaps)])
	}
	done.Store(true)
	wg.Wait()
}

// TestStoreServeLabelsMatchContentUnderPublish: Store.Serve under a
// stream of publishes, hot-key cache on. Every answer's content must be
// the generation it is labelled with, including answers served from the
// cache, which keys entries by that label.
func TestStoreServeLabelsMatchContentUnderPublish(t *testing.T) {
	st := New(dfs.New(), Options{Shards: 1, Replicas: 2, CacheSize: 64})
	defer st.Close()
	st.Publish(integritySnapshot(1, "shop"))
	if err := st.PublishErr(); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg, ready sync.WaitGroup
	var answers atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for !done.Load() {
				recs, _, gen, err := st.Serve(catalog.RetailerID("shop"), viewCtx(), 2)
				if err != nil {
					t.Errorf("Serve: %v", err)
					return
				}
				if got := labelledGen(recs); got != gen {
					t.Errorf("answer from generation %d labelled %d", got, gen)
					done.Store(true)
				}
				answers.Add(1)
			}
		}()
	}
	ready.Wait()
	var publishErr error
	for g := int64(2); g <= 60 && !done.Load() && publishErr == nil; g++ {
		st.Publish(integritySnapshot(g, "shop"))
		publishErr = st.PublishErr()
	}
	done.Store(true)
	wg.Wait()
	if publishErr != nil {
		t.Fatal(publishErr)
	}
	if answers.Load() == 0 {
		t.Fatal("no answers served while publishing")
	}
}
