// Live monitoring and response: stream anycast observations into a
// Fenrir monitor, catch a change event the moment it happens, and use a
// traffic-engineering playbook to plan the response — the full
// detect → diagnose → act loop the paper envisions for operators.
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"time"

	"fenrir"
	"fenrir/internal/astopo"
	"fenrir/internal/bgpsim"
	"fenrir/internal/dataplane"
	"fenrir/internal/measure/verfploeter"
	"fenrir/internal/netaddr"
	"fenrir/internal/playbook"
)

func main() {
	// Build a small world with a two-site anycast service.
	gen := astopo.DefaultGenConfig(21)
	gen.StubsPerRegion = 15
	g := astopo.Generate(gen)
	var t2NA, t2EU astopo.ASN
	for _, a := range g.ASNs() {
		as := g.AS(a)
		if as.Tier != astopo.Tier2 {
			continue
		}
		if as.Region.Name == "NA" && t2NA == 0 {
			t2NA = a
		}
		if as.Region.Name == "EU" && t2EU == 0 {
			t2EU = a
		}
	}
	svc := bgpsim.NewService("dns", netaddr.MustParsePrefix("199.9.14.0/24"))
	svc.AddSite("LAX", t2NA)
	svc.AddSite("AMS", t2EU)
	cfg := dataplane.DefaultConfig(21)
	cfg.MeanResponsiveness = 1
	cfg.LossRate = 0
	net := dataplane.NewNet(g, nil, cfg)
	net.AddService(svc, nil)

	hitlist := g.RoutableBlocks()
	mapper := verfploeter.NewMapper(net, "dns", hitlist)
	space := mapper.Space()

	sched := fenrir.NewSchedule(time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, 60)
	mon := fenrir.NewMonitor(space, sched, nil, fenrir.PessimisticUnknown, fenrir.DefaultDetectOptions())

	// Stream 30 daily censuses; on day 20 a third-party change (the EU
	// site's transit loses a tier-1 uplink) shifts catchments without any
	// operator action.
	for day := 0; day < 30; day++ {
		if day == 20 {
			provider := g.AS(t2EU).Providers[0]
			g.RemoveProviderCustomer(provider, t2EU)
			net.Refresh()
			fmt.Printf("day %d: (silent third-party event upstream of AMS)\n", day)
		}
		v, err := mapper.Census(space, fenrir.Epoch(day))
		if err != nil {
			panic(err)
		}
		ev, changed, err := mon.Append(v)
		if err != nil {
			panic(err)
		}
		if changed {
			fmt.Printf("day %d: CHANGE detected — Phi dropped to %.2f (baseline %.2f)\n",
				int(ev.At), ev.Phi, ev.Baseline)
		}
		// An operator dashboard would poll Snapshot from another
		// goroutine; here we print it every ten days.
		if (day+1)%10 == 0 {
			snap := mon.Snapshot()
			fmt.Printf("day %d: monitor health: %d appends, %d events, mean ingest %v\n",
				day, snap.Appends, snap.Events, snap.MeanIngest().Round(time.Microsecond))
		}
	}

	final := mon.Snapshot()
	fmt.Printf("\nfinal: %d observations held, last event at epoch %d, total ingest %v\n",
		final.History, int(final.LastEvent), final.TotalIngest.Round(time.Millisecond))

	cur := mon.LiveModes().ModeOf(mon.Len() - 1)
	fmt.Printf("\ncurrent mode: #%d with %d observations across %d range(s)\n",
		cur.ID, len(cur.Epochs), len(cur.Ranges))

	// The operator responds: plan prepending that rebalances the two
	// sites under the new (degraded) topology.
	plan, err := playbook.Optimize(g, nil, svc, g.ASNs(),
		playbook.EvenObjective([]string{"LAX", "AMS"}), playbook.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("playbook: balance deviation %.2f -> %.2f with prepends %v (%d BGP evaluations)\n",
		plan.Baseline, plan.Score, plan.Prepends, plan.Evaluations)
	playbook.Apply(svc, plan)
	net.Refresh()
	fmt.Println("plan deployed; the next monitor appends will confirm the new mode")
}
