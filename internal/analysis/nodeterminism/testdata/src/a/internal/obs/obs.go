// Package obs stands in for the repo's observability package: its path
// ends in internal/obs, so its Mono is the banned monotonic clock.
// It is itself out of scope.
package obs

import "time"

var epoch = time.Now()

// Mono returns the monotonic time since package initialisation.
func Mono() time.Duration { return time.Since(epoch) }
