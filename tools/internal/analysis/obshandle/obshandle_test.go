package obshandle_test

import (
	"testing"

	"lash/tools/internal/analysis/obshandle"
	"lash/tools/internal/analysis/vettest"
)

func TestObsHandle(t *testing.T) {
	vettest.Run(t, vettest.TestData(t), obshandle.Analyzer, "a", "core", "suppress", "mapreduce", "miner")
}
