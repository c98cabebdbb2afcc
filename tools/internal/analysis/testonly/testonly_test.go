package testonly_test

import (
	"path/filepath"
	"testing"

	"lash/tools/internal/analysis/testonly"
	"lash/tools/internal/analysis/vettest"
)

func TestTestOnly(t *testing.T) {
	vettest.RunProgram(t, filepath.Join(vettest.TestData(t), "mod"), testonly.Analyzer)
}
