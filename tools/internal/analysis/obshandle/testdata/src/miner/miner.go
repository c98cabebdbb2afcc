// Package miner has a run-record import-path base: a local mine's work is
// returned in its Stats, never counted into a handle it holds.
package miner

import "obs"

type Stats struct {
	Explored, Output int64
}

type Config struct {
	Sigma int64
	Obs   *obs.Counter // want `obs.Counter handle Obs held in miner`
}
