package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/server"
)

// served is one trained model behind the real handler on a loopback listener.
type served struct {
	d     *datagen.Dataset
	est   *core.Estimator // the trained original; the server runs its own copy restored from the checkpoint
	dir   string
	srv   *server.Server
	entry *server.Entry
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve has returned
	base  string

	// Set-up stages. total is setup_s: everything between an empty directory
	// and a model that answers estimates.
	build, train, ckptWrite, load, total time.Duration
	ckptBytes                            int64
}

// setUp does what an operator does before neurocardd can serve: generate the
// data, build and train the estimator, write its checkpoint, and load it into
// a server with neurocardd's default configuration at the given precision.
// The listener is not part of set-up; serve starts it.
func setUp(cfg config, dir string, prec core.Precision) (*served, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &served{dir: dir}
	t0 := time.Now()
	d, err := datagen.JOBLight(cfg.data)
	if err != nil {
		return nil, err
	}
	m.d = d
	t1 := time.Now()
	if m.est, err = core.Build(d.Schema, cfg.core(d.ContentCols)); err != nil {
		return nil, err
	}
	t2 := time.Now()
	if _, err := m.est.Train(cfg.trainTuples); err != nil {
		return nil, err
	}
	t3 := time.Now()
	ckpt := filepath.Join(dir, modelName+".ckpt")
	if err := core.WriteCheckpointFile(m.est, ckpt); err != nil {
		return nil, err
	}
	t4 := time.Now()
	m.srv = server.New(server.Config{ModelsDir: dir, JournalDir: filepath.Join(dir, "journals")})
	if m.entry, err = m.srv.Registry().LoadPrecision(modelName, "", prec); err != nil {
		m.srv.Close()
		return nil, err
	}
	if _, err := m.srv.EnableIngest(modelName); err != nil {
		m.srv.Close()
		return nil, err
	}
	t5 := time.Now()
	m.build, m.train, m.ckptWrite, m.load, m.total = t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4), t5.Sub(t0)
	fi, err := os.Stat(ckpt)
	if err != nil {
		m.srv.Close()
		return nil, err
	}
	m.ckptBytes = fi.Size()
	return m, nil
}

// serve mounts the handler (wrapped, on a traced run) on 127.0.0.1:0.
func (m *served) serve(wrap func(http.Handler) http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := m.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	m.hs = &http.Server{Handler: h}
	m.done = make(chan struct{})
	m.base = "http://" + ln.Addr().String()
	go func() {
		defer close(m.done)
		_ = m.hs.Serve(ln) // always ErrServerClosed after close()
	}()
	return nil
}

// close stops the listener, waits for it, and closes the server's coalescers
// and journals.
func (m *served) close() {
	if m.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := m.hs.Shutdown(ctx); err != nil {
			m.hs.Close()
		}
		cancel()
		<-m.done
	}
	m.srv.Close()
}

// current returns the entry serving now; a refresh replaces it.
func (m *served) current() (*server.Entry, error) {
	e, err := m.srv.Registry().Get(modelName)
	if err != nil {
		return nil, fmt.Errorf("served model vanished: %w", err)
	}
	return e, nil
}
