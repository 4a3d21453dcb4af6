package multiuser

// Race coverage for the shared-env request path. Worlds serialize
// users onto the virtual clock, so the simulator itself never races —
// but the shared infrastructure (webapp.Server's session map, the
// process-wide parse caches, cow state cells, app state mutexes, the
// coverage readers) must hold up under genuinely concurrent clients
// too: the jobs engine runs campaigns in parallel and the serve
// daemon's metrics exporter reads state while jobs run. Run with
// `go test -race` (CI does) to make this test meaningful.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/dslab-epfl/warr/internal/apps"
	"github.com/dslab-epfl/warr/internal/browser"
	"github.com/dslab-epfl/warr/internal/netsim"
	"github.com/dslab-epfl/warr/internal/registry"
)

func TestSharedEnvConcurrentClients(t *testing.T) {
	env := registry.MustNewEnv(browser.DeveloperMode,
		registry.WithApps(apps.SitesApp(), apps.DocsApp(), apps.YahooApp()))

	const clients = 4
	const rounds = 25

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client keeps its own per-host cookie jar (as a real
			// browser would), so every app server mints exactly one
			// session per client and every request exercises the
			// session map.
			jar := make(map[string]string)
			fetch := func(host, pathAndQuery string) {
				req := netsim.NewRequest("GET", "http://"+host+pathAndQuery)
				if cookie := jar[host]; cookie != "" {
					req.SetHeader("Cookie", cookie)
				}
				resp, err := env.Network.Fetch(req)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if sc := resp.Header["Set-Cookie"]; sc != "" && jar[host] == "" {
					jar[host] = sc
				}
			}
			for r := 0; r < rounds; r++ {
				fetch(apps.SitesHost, fmt.Sprintf("/notes?me=u%d", c))
				fetch(apps.SitesHost, fmt.Sprintf("/notes/save?me=u%d&list=", c))
				fetch(apps.DocsHost, "/tally")
				fetch(apps.DocsHost, fmt.Sprintf("/tally/bump?v=%d", r))
				fetch(apps.YahooHost, fmt.Sprintf("/presence/hello?name=u%d", c))
				fetch(apps.YahooHost, "/presence")
			}
		}(c)
	}

	// Concurrent coverage readers — the lanes the explorer and the
	// metrics exporter read while requests mutate state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < clients*rounds; i++ {
			for _, name := range env.AppNames() {
				st, ok := env.State(name)
				if !ok {
					continue
				}
				if cs, ok := st.(registry.CoverageSource); ok {
					cs.CoverageMarks()
				}
				if scs, ok := st.(registry.SessionCoverageSource); ok {
					scs.SessionCoverageMarks()
				}
			}
		}
	}()
	wg.Wait()

	// Every client held a distinct session on every app it touched.
	for _, name := range []string{apps.SitesName, apps.DocsName, apps.YahooName} {
		st := env.MustState(name)
		scs, ok := st.(registry.SessionCoverageSource)
		if !ok {
			t.Fatalf("%s state lost its session coverage lane", name)
		}
		if got := len(scs.SessionCoverageMarks()); got != clients {
			t.Errorf("%s holds %d sessions, want %d", name, got, clients)
		}
	}
}
