// Package b is out of scope (its path names no collection package), so
// nondeterminism here is legal and the analyzer must stay silent.
package b

import (
	"math/rand"
	"time"

	"a/internal/obs"
)

func Clock() time.Time { return time.Now() }

func Mono() time.Duration { return obs.Mono() }

func Draw() float64 { return rand.Float64() }
