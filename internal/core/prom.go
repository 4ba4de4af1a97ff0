package core

import (
	"io"

	"github.com/rvm-go/rvm/internal/obs"
)

// PromContentType is the Content-Type a handler serving WritePrometheus
// output should set.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format.  Serve it with Content-Type PromContentType; the debug handler's
// /metrics route does exactly that.
func (sn Snapshot) WritePrometheus(w io.Writer) error { return obs.WritePrometheus(w, sn) }

// WriteText renders the snapshot as the terminal view rvmstat shows.
func (sn Snapshot) WriteText(w io.Writer) error { return obs.WriteText(w, sn) }
