package client

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// FuzzClientFrames feeds arbitrary response byte streams to a client
// with three calls pending. Under hostile input the client must never
// panic or hang: every call resolves, with a verdict or an error but
// not both, and no id stays pending.
func FuzzClientFrames(f *testing.F) {
	cat := func(frames ...[]byte) []byte {
		var b []byte
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	f.Add(cat(verdictFrame(1, 40, false), verdictFrame(2, 41, true), verdictFrame(3, 42, false)))
	f.Add(cat(verdictFrame(3, 1, false), errorFrame(2, server.CodeOverloaded), verdictFrame(1, 2, false)))
	// Downgrades: content and tracing refused, then plain verdicts.
	f.Add(cat(errorFrame(1, server.CodeBadRequest), errorFrame(4, server.CodeBadRequest), verdictFrame(5, 9, false)))
	// Duplicates, unknown ids, an unknown type, a truncated body.
	f.Add(cat(verdictFrame(1, 1, false), verdictFrame(1, 2, false), verdictFrame(1<<40, 3, false),
		frame(0x7f, 2, 1, 2, 3), frame(server.MsgVerdict, 3)))
	// A short frame, an oversized one, and a frame cut off mid-body.
	f.Add([]byte{0, 0, 0, 2, 0x02, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x02})
	f.Add(verdictFrame(1, 40, false)[:10])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		cli, srv := net.Pipe()
		c := NewClient(cli, WithContent(), WithTracing())
		var bg sync.WaitGroup
		bg.Add(2)
		go func() {
			defer bg.Done()
			_, _ = io.Copy(io.Discard, srv) // the requests
		}()
		go func() {
			defer bg.Done()
			if _, err := srv.Write(stream); err == nil {
				srv.Close() // the stream ends; whoever still waits fails
			}
		}()

		const callers = 3
		type outcome struct {
			res Result
			err error
		}
		results := make(chan outcome, callers)
		for i := 0; i < callers; i++ {
			go func() {
				res, err := c.ScanContext(context.Background(), []byte("payload"))
				results <- outcome{res, err}
			}()
		}
		timeout := time.After(10 * time.Second)
		for i := 0; i < callers; i++ {
			select {
			case o := <-results:
				if o.err != nil && o.res != (Result{}) {
					t.Fatalf("call returned both a result %+v and an error %v", o.res, o.err)
				}
			case <-timeout:
				t.Fatalf("%d of %d calls never resolved", callers-i, callers)
			}
		}
		if p := pendingLen(c); p != 0 {
			t.Fatalf("%d ids still pending after every call resolved", p)
		}
		c.Close()
		srv.Close()
		bg.Wait()
	})
}
