// Package wsfix exercises the wsalias analyzer against the real engine and
// result types: results of workspace-backed runs alias pooled memory and
// must be Clone()d before outliving a Pool.Release.
package wsfix

import (
	"ppscan/internal/engine"
	"ppscan/internal/result"
)

var pool *engine.Pool

var cache = map[string]*result.Result{}

// compute stands in for core.Run / engine.Run: it takes a
// workspace and yields a result aliasing its buffers.
func compute(ws *engine.Workspace) *result.Result { return nil }

func computeErr(ws *engine.Workspace) (*result.Result, error) { return nil, nil }

func add(r *result.Result) {}

func badReturn(ws *engine.Workspace) *result.Result {
	res := compute(ws)
	pool.Release(ws)
	return res // want `workspace-backed result "res" returned after Pool release without Clone`
}

func badStore(key string, ws *engine.Workspace) {
	res, err := computeErr(ws)
	pool.Release(ws)
	if err != nil {
		return
	}
	cache[key] = res // want `workspace-backed result "res" stored after Pool release without Clone`
}

func badCacheCall(ws *engine.Workspace) {
	res := compute(ws)
	pool.Release(ws)
	add(res) // want `workspace-backed result "res" cached after Pool release without Clone`
}

func goodClone(ws *engine.Workspace) *result.Result {
	res := compute(ws)
	res = res.Clone()
	pool.Release(ws)
	return res
}

func goodCloneStore(key string, ws *engine.Workspace) *result.Result {
	res, err := computeErr(ws)
	if err != nil {
		pool.Release(ws)
		return nil
	}
	res = res.Clone()
	pool.Release(ws)
	cache[key] = res
	return res
}

// goodNoRelease never gives the workspace back, so the result may alias it;
// the caller owns both (this is core.Run's own contract).
func goodNoRelease(ws *engine.Workspace) *result.Result {
	res := compute(ws)
	return res
}

func suppressed(ws *engine.Workspace) *result.Result {
	res := compute(ws)
	pool.Release(ws)
	//lint:wsalias single-threaded caller copies the fields out before the next Acquire
	return res
}
