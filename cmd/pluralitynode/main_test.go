package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestTwoProcessCluster runs the command twice in one binary, as the two
// members of a loopback mesh, the way scripts/net_quickstart.sh runs two
// processes: both must reach the same consensus.
func TestTwoProcessCluster(t *testing.T) {
	var hosts []string
	for range 2 {
		var port bytes.Buffer
		if err := run(context.Background(), []string{"-reserve-port"}, &port, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, "127.0.0.1:"+strings.TrimSpace(port.String()))
	}
	type result struct {
		out string
		err error
	}
	results := make(chan result, len(hosts))
	for _, listen := range hosts {
		go func() {
			var out, log bytes.Buffer
			err := run(context.Background(), []string{
				"-listen", listen, "-peers", strings.Join(hosts, ","),
				"-counts", "27,5", "-seed", "13", "-unit", "25ms",
			}, &out, &log)
			results <- result{out.String(), err}
		}()
	}
	for range hosts {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		// From 27:5 the minority never won over 10⁴ seeds on the lossless
		// fabric, so a minority winner points at the transport.
		if !strings.HasPrefix(r.out, "pluralitynode: consensus winner=0 ") {
			t.Errorf("output %q, want a consensus on colour 0", r.out)
		}
	}
}
