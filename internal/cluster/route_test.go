package cluster

import (
	"slices"
	"testing"
	"time"

	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// counts reads one counter off every fake member.
func counts(fakes []*fakeTarget, field func(*fakeTarget) int) []int {
	out := make([]int, len(fakes))
	for i, f := range fakes {
		out[i] = field(f)
	}
	return out
}

func flushes(f *fakeTarget) int { return f.flushes }
func admins(f *fakeTarget) int  { return f.admins }

// probed has keep-alive probes declare a member dead on its first
// failed probe.
var probed = Options{Replicas: 2, ExtentSize: 4096, ProbeInterval: 50 * time.Microsecond, ProbeMisses: 1}

// The Flush barrier reaches every live seated member exactly once: not
// the spare, and not a member declared dead.
func TestFlushReachesEveryLiveSeatedMemberOnce(t *testing.T) {
	e := sim.NewEngine(21)
	opts := probed
	opts.Seats = 3 // and one spare, m3
	c, fakes := rig(t, e, 4, 1<<20, opts)
	flush := func(p *sim.Proc) nvme.Status {
		return transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p).Status
	}
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		if st := flush(p); st != nvme.StatusSuccess {
			t.Fatalf("flush over healthy members: %v", st)
		}
		if got, want := counts(fakes, flushes), []int{1, 1, 1, 0}; !slices.Equal(got, want) {
			t.Fatalf("flushes per member = %v, want %v", got, want)
		}
		// m1 dies; its probe fails and m3 takes its seat.
		fakes[1].down = true
		p.Sleep(time.Millisecond)
		if c.members[1].alive || c.members[3].seat != 1 {
			t.Fatalf("m1 alive=%v, m3 seat=%d: want m1 dead and m3 seated at 1", c.members[1].alive, c.members[3].seat)
		}
		if st := flush(p); st != nvme.StatusSuccess {
			t.Fatalf("flush after failover: %v", st)
		}
		if got, want := counts(fakes, flushes), []int{2, 1, 2, 1}; !slices.Equal(got, want) {
			t.Fatalf("flushes per member = %v, want %v", got, want)
		}
	})
}

// A Flush with no live member cannot be a barrier for anything: it
// fails with NamespaceNotRdy without touching any member.
func TestFlushWithNoLiveMemberIsNotReady(t *testing.T) {
	e := sim.NewEngine(22)
	c, fakes := rig(t, e, 2, 1<<20, probed)
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		fakes[0].down, fakes[1].down = true, true
		p.Sleep(time.Millisecond)
		if c.members[0].alive || c.members[1].alive {
			t.Fatal("probes did not declare the failed members dead")
		}
		before := counts(fakes, flushes)
		if st := transport.Submit(p, c, &transport.IO{Flush: true}).Wait(p).Status; st != nvme.StatusNamespaceNotRdy {
			t.Fatalf("flush with no live member: %v, want %v", st, nvme.StatusNamespaceNotRdy)
		}
		if got := counts(fakes, flushes); !slices.Equal(got, before) {
			t.Fatalf("flushes per member went %v -> %v with every member dead", before, got)
		}
	})
}

// An admin command goes to the first live member only.
func TestAdminGoesToFirstLiveMember(t *testing.T) {
	e := sim.NewEngine(23)
	c, fakes := rig(t, e, 3, 1<<20, probed)
	admin := func(p *sim.Proc) nvme.Status {
		return transport.Submit(p, c, &transport.IO{Admin: nvme.AdminIdentify, CDW10: nvme.CNSController}).Wait(p).Status
	}
	run(t, e, func(p *sim.Proc) {
		defer c.Close()
		if st := admin(p); st != nvme.StatusSuccess {
			t.Fatalf("admin over healthy members: %v", st)
		}
		if got, want := counts(fakes, admins), []int{1, 0, 0}; !slices.Equal(got, want) {
			t.Fatalf("admin commands per member = %v, want %v", got, want)
		}
		// m0 dies; its probe fails and m1 serves admin commands after.
		fakes[0].down = true
		p.Sleep(time.Millisecond)
		if st := admin(p); st != nvme.StatusSuccess {
			t.Fatalf("admin after m0 died: %v", st)
		}
		if got, want := counts(fakes, admins), []int{1, 1, 0}; !slices.Equal(got, want) {
			t.Fatalf("admin commands per member = %v, want %v", got, want)
		}
	})
}
