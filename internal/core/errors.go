package core

import "errors"

// Serving-path error taxonomy. Schedulers and admission controllers branch
// on WHY a prediction failed — an unknown template is a caller bug, an
// untrained MPL wants the nearest-MPL fallback, an empty mix means "use the
// isolated latency" — so the prediction entry points wrap these
// errors.Is-able sentinels instead of bare strings.
var (
	// ErrUnknownTemplate: the primary (or a required concurrent template)
	// is not in the knowledge base / has no trained model.
	ErrUnknownTemplate = errors.New("unknown template")
	// ErrEmptyMix: the concurrent mix is empty; concurrency prediction is
	// undefined at MPL 1 — the isolated latency is the answer.
	ErrEmptyMix = errors.New("empty concurrent mix")
	// ErrUntrainedMPL: the mix's multiprogramming level has no trained
	// reference models (or the template has none at that MPL).
	ErrUntrainedMPL = errors.New("untrained MPL")
	// ErrBadObservation: an observed latency handed to Feedback is
	// non-positive or non-finite, or so small that the relative error
	// overflows — no finite relative error can be formed, so nothing is
	// recorded.
	ErrBadObservation = errors.New("bad observed latency")
)
