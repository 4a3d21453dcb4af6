package script

import "github.com/dslab-epfl/warr/internal/gencache"

// Process-wide parse cache. Page scripts and inline handlers repeat
// verbatim across page loads, environments, and forks — a campaign
// parses the same few sources thousands of times. Parsed programs are
// immutable (evaluation never writes AST nodes; closures share body
// slices read-only), so one cached program can serve every interpreter
// and every goroutine. Parse errors are cached too — a page with a
// broken script reloads just as often. Sources are admitted from their
// second sighting on, so pages that mint a unique script per load
// (GMail) cannot flood the cache.
var parseCache = gencache.New[parseEntry](1024)

type parseEntry struct {
	prog *program
	err  error
}

// parseCached is parse behind the process-wide cache.
func parseCached(src string) (*program, error) {
	e := parseCache.Get(src, func() (e parseEntry) {
		e.prog, e.err = parse(src)
		return e
	})
	return e.prog, e.err
}
