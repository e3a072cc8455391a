package harmony

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// spaceOf returns the space of the named session, failing t when none is
// registered.
func spaceOf(t *testing.T, srv *Server, name string) *space.Space {
	t.Helper()
	s := srv.lookup(name)
	if s == nil {
		t.Fatalf("session %q not registered", name)
	}
	return s.sp
}

// interned returns the space the server keeps for its last registered
// parameter list, nil when it keeps none.
func interned(srv *Server) *space.Space {
	if last := srv.lastSpace.Load(); last != nil {
		return last.sp
	}
	return nil
}

// Sessions registered over equal parameter lists share one space, with or
// without a store; a different list gets its own.
func TestRegisterInternsEqualSpaces(t *testing.T) {
	for _, withDB := range []bool{false, true} {
		opts := ServerOptions{}
		if withDB {
			opts.DB = measuredb.NewMemory(measuredb.Options{})
		}
		srv := NewServer(opts)
		for _, name := range []string{"a", "b", "c"} {
			if err := srv.Register(name, gs2Params()); err != nil {
				t.Fatal(err)
			}
		}
		sp := spaceOf(t, srv, "a")
		if spaceOf(t, srv, "b") != sp || spaceOf(t, srv, "c") != sp {
			t.Errorf("db %v: equal parameter lists built separate spaces", withDB)
		}
		if !withDB {
			if err := srv.Register("d", []space.Parameter{space.IntParam("x", 0, 9)}); err != nil {
				t.Fatal(err)
			}
			if spaceOf(t, srv, "d") == sp {
				t.Error("a different parameter list shares the first list's space")
			}
			// Same names, kinds, bounds and menu length; one menu value differs.
			menu := gs2Params()
			menu[2] = space.DiscreteParam("nodes", 1, 2, 4, 8, 16, 48, 64)
			if err := srv.Register("e", menu); err != nil {
				t.Fatal(err)
			}
			if got := spaceOf(t, srv, "e").Param(2).Values; got[5] != 48 {
				t.Errorf("a list with 48 on its menu got the space with menu %v", got)
			}
		}
		srv.Close()
	}
}

// A space the store rejects is never interned: every attempt rebuilds it
// and fails with the store's error, and the accepted space is unaffected.
func TestRejectedSpaceNeverInterned(t *testing.T) {
	db := measuredb.NewMemory(measuredb.Options{})
	srv := NewServer(ServerOptions{DB: db})
	defer srv.Close()
	if err := srv.Register("a", gs2Params()); err != nil {
		t.Fatal(err)
	}
	other := []space.Parameter{space.IntParam("x", 0, 9)}
	want := fmt.Sprintf("measuredb: store is bound to space %q, not %q", space.MustNew(gs2Params()...).String(), space.MustNew(other...).String())
	for i := 0; i < 3; i++ {
		err := srv.Register("b"+strconv.Itoa(i), other)
		if err == nil || err.Error() != want {
			t.Fatalf("attempt %d: err = %v, want %q", i, err, want)
		}
		if srv.lookup("b"+strconv.Itoa(i)) != nil {
			t.Fatalf("attempt %d: the rejected session was registered", i)
		}
	}
	if interned(srv) != spaceOf(t, srv, "a") {
		t.Error("a rejected space replaced the accepted one")
	}
	if err := srv.Register("c", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if spaceOf(t, srv, "c") != spaceOf(t, srv, "a") {
		t.Error("the accepted space was not reused after the rejections")
	}
}

// Joining compares spaces by pointer first and by signature after: an equal
// list joins, a list that builds the same space from a different spelling
// joins, and a different list still errors, also when it differs only in
// one value of a discrete menu.
func TestJoinComparesSpaces(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("a", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("a", gs2Params()); err != nil {
		t.Errorf("joining with an equal list: %v", err)
	}
	respelt := gs2Params()
	respelt[2] = space.DiscreteParam("nodes", 64, 32, 16, 8, 4, 2, 1)
	if err := srv.Register("a", respelt); err != nil {
		t.Errorf("joining with the same space spelt differently: %v", err)
	}
	menu := gs2Params()
	menu[2] = space.DiscreteParam("nodes", 1, 2, 4, 8, 16, 48, 64)
	for _, params := range [][]space.Parameter{{space.IntParam("x", 0, 9)}, menu} {
		err := srv.Register("a", params)
		if err == nil || !strings.Contains(err.Error(), `session "a" already registered with different parameters`) {
			t.Errorf("joining with parameters %v: err = %v", params, err)
		}
	}
}

// A 1-D list whose name holds a comma does not join a session over the 2-D
// list a, b, whose signature the 1-D list's would otherwise equal.
func TestJoinRefusesCommaName(t *testing.T) {
	srv := NewServer(ServerOptions{DB: measuredb.NewMemory(measuredb.Options{})})
	defer srv.Close()
	if err := srv.Register("s", []space.Parameter{space.ContinuousParam("a", 0, 1), space.ContinuousParam("b", 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("s", []space.Parameter{space.ContinuousParam("a:continuous[0,1], b", 0, 1)}); err == nil {
		t.Fatal("a 1-D list joined a session over the 2-D list a, b")
	}
}

// Concurrent registrations and joins over equal and different lists race
// only through the interned pair (CI runs this under -race), every session
// ends up over the space its list describes, and the kept key and space
// describe one list.
func TestConcurrentRegisterInterning(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	lists := [][]space.Parameter{gs2Params(), {space.IntParam("x", 0, 9), space.IntParam("y", 0, 9)}}
	const workers, each = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers*each)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				list := i % len(lists)
				// Every worker registers or joins the shared sessions, and
				// registers sessions of its own.
				for _, name := range []string{
					fmt.Sprintf("l%d-shared%d", list, i/len(lists)%2),
					fmt.Sprintf("l%d-w%d-%d", list, w, i),
				} {
					if err := srv.Register(name, lists[list]); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, name := range srv.Sessions() {
		list := lists[name[1]-'0']
		if got, want := spaceOf(t, srv, name).String(), space.MustNew(list...).String(); got != want {
			t.Errorf("session %s is over %s, want %s", name, got, want)
		}
	}
	last := srv.lastSpace.Load()
	for _, list := range lists {
		if space.SameParams(last.params, list) {
			if got, want := last.sp.String(), space.MustNew(list...).String(); got != want {
				t.Errorf("the key of %s is kept with space %s", want, got)
			}
			return
		}
	}
	t.Errorf("the kept key matches no registered list")
}

// warmRegisterAllocs is a fully warm Register's measured allocation count:
// the session (struct, channels, engine goroutine, Memo), the optimiser and
// its initial simplex, one slab and one cache-answered value slice per
// batch, and the best clones. The interned space costs nothing.
const warmRegisterAllocs = 54

// A fully warm registration of a new session, on a server wired like
// harmonyd -db, steps PRO to convergence inside Register. AllocsPerRun
// measures at one P, so each engine goroutine exits before Register's
// caller resumes, the next session reuses it, and the count is exact.
func TestWarmRegisterAllocs(t *testing.T) {
	srv, _ := warmServer(t, ServerOptions{})
	params := gs2Params()
	names := make([]string, 101)
	for i := range names {
		names[i] = "warm-" + strconv.Itoa(i)
	}
	i := 0
	alloccheck.Guard(t, "harmony.Server.Register/warm", warmRegisterAllocs, func() {
		if err := srv.Register(names[i], params); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if _, _, conv, err := srv.Best(names[0]); err != nil || !conv {
		t.Fatalf("warm session converged %v, err %v", conv, err)
	}
}
