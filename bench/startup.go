package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// episodeCalls is how many calls each half of a start-up episode
// makes: enough for the default grid's 15-call measure phase to finish
// and the site to be checkpointed as converged.
const episodeCalls = 60

// startup is the closed loop of one client in which a request is one
// start-up episode of one kernel: compile it, tune it from cold, save
// what was learned, then compile it again and tune it from that log.
type startup struct {
	seed  uint64
	ks    []*kernel
	dir   string // holds the tune logs; inside the checkout
	args  []*argSet
	calls []int64
}

// episodeInfo is what a traced episode reports besides its spans.
type episodeInfo struct {
	logBytes int64
	warmHit  bool // LoadFrom seeded at least one site
}

func (w *startup) setUp() error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	w.args, w.calls = make([]*argSet, len(w.ks)), make([]int64, len(w.ks))
	for i, k := range w.ks {
		w.args[i] = k.newArgs()
		// One unmeasured episode per kernel: first-use costs of the
		// runtime and the file system are not start-up costs of the
		// system under test.
		if _, failed, err := w.episode(i, nil, 0, -1); err != nil || failed > 0 {
			return fmt.Errorf("warm-up episode %s: failed=%d err=%v", k.Name, failed, err)
		}
	}
	return nil
}

func (w *startup) tearDown() { os.RemoveAll(w.dir) }

// half runs one half of an episode: front end, a fresh tuner, the
// log load when warm, then episodeCalls calls.
func (w *startup) half(i int, tr *tracer, parent int32, req int64, loadFrom string) (tn *autotune.AutoTuner, loaded int, failed int64, err error) {
	k, a := w.ks[i], w.args[i]
	sp := tr.begin(spParse, parent, req)
	f, err := cm.Parse(k.File, k.Src)
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	sp = tr.begin(spCompile, parent, req)
	prog, err := cm.Compile(f)
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	sp = tr.begin(spNew, parent, req)
	// Every episode explores with its own stream: with one stream, all
	// episodes of a run would repeat the same draws and a run would be
	// one sample of the tuner's luck, not an average over it.
	tn, err = autotune.New(prog, autotune.WithSeed(w.seed+uint64(w.calls[i])))
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	if loadFrom != "" {
		sp = tr.begin(spLoad, parent, req)
		loaded, err = tn.LoadFrom(loadFrom)
		tr.end(sp)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	for c := 0; c < episodeCalls; c++ {
		a.restore()
		sp = tr.begin(spCall, parent, req)
		v, err := tn.Call(k.Fn, a.args...)
		tr.end(sp)
		// Every episode ends on a checked call, so the last response of
		// each kernel is always among the checked ones.
		if err != nil {
			failed++
		} else if (w.calls[i]%checkEvery == 0 || c == episodeCalls-1) && !k.ref.matches(v, a) {
			failed++
		}
		w.calls[i]++
	}
	return tn, loaded, failed, nil
}

// episode runs one start-up episode of kernel i. failed counts calls
// inside it that erred or disagreed with the oracle.
func (w *startup) episode(i int, tr *tracer, parent int32, req int64) (info episodeInfo, failed int64, err error) {
	path := filepath.Join(w.dir, w.ks[i].Name+".tune")
	defer os.Remove(path)

	cold := tr.begin(spCold, parent, req)
	tn, _, failed, err := w.half(i, tr, cold, req, "")
	if err != nil {
		return info, failed, err
	}
	sp := tr.begin(spSave, cold, req)
	err = tn.SaveTo(path)
	tr.end(sp)
	tr.end(cold)
	if err != nil {
		return info, failed, err
	}
	if tr != nil {
		if st, err := os.Stat(path); err == nil {
			info.logBytes = st.Size()
		}
	}

	warm := tr.begin(spWarm, parent, req)
	_, loaded, f2, err := w.half(i, tr, warm, req, path)
	tr.end(warm)
	info.warmHit = loaded > 0
	return info, failed + f2, err
}

func (w *startup) measure(d time.Duration, tr *tracer) (*samples, error) {
	s := &samples{lat: make([][]int64, len(w.ks))}
	for i := range s.lat {
		s.lat[i] = make([]int64, 0, int(32*d.Seconds()+16))
	}
	sl := newSlicer(nil)
	win := openWindow()
	sl.open()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := range w.ks {
			t0 := time.Now()
			root := tr.begin(spEpisode, 0, s.attempted)
			info, failed, err := w.episode(i, tr, root, s.attempted)
			tr.end(root)
			s.logBytes += info.logBytes
			if info.warmHit {
				s.warmHits++
			}
			s.lat[i] = append(s.lat[i], int64(time.Since(t0)))
			if err != nil || failed > 0 {
				s.failed++
			}
			s.attempted++
			sl.close(i, 1, s.lat[i][len(s.lat[i])-1:])
		}
	}
	win.close(s)
	s.setTypical(sl)
	return s, nil
}
