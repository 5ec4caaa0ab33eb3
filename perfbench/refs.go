package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// goldenDir holds the simulator's reviewed output snapshots, relative to the
// repository root.
const goldenDir = "testdata/golden"

// hierDigests are the reference outputs of the two hierarchical shapes,
// which have no golden snapshot: the SHA-256 of rowDigest over the rendered
// row cells. They were recorded from the simulator after confirming that
// ParWorkers 0, 1 and 2 give identical rows in both cluster sync modes.
var hierDigests = map[string]string{
	"hier-2x128": "69f9edef8f8389ee5403efa4c11ada7ac1929b78828e92b06907c2a5529fe076",
	"hier-2x32":  "b3574836a6a73da430937028a30aa2a6ea6a4ab3fa0e102a1872464a17cc87b0",
}

// goldenBytes returns the snapshot of one catalogue experiment: its
// Render() output plus the trailing newline the CLI prints.
func goldenBytes(root, exp string) ([]byte, error) {
	return os.ReadFile(filepath.Join(root, goldenDir, exp+".golden"))
}

var cellSep = regexp.MustCompile(`\s{2,}`)

// goldenRows parses a rendered table snapshot into its rows' cells, keyed by
// the first cell. Cells are separated by runs of two or more spaces.
func goldenRows(root, exp string) (map[string][]string, error) {
	b, err := goldenBytes(root, exp)
	if err != nil {
		return nil, err
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(b), "\n") {
		cells := cellSep.Split(strings.TrimSpace(line), -1)
		if len(cells) >= 2 {
			rows[cells[0]] = cells
		}
	}
	return rows, nil
}

// compareCells reports the first cell that differs from the reference.
func compareCells(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d cells %q, want %d cells %q", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("cell %d = %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// rowDigest is the hex SHA-256 of a row's cells joined by tabs.
func rowDigest(cells []string) string {
	sum := sha256.Sum256([]byte(strings.Join(cells, "\t")))
	return hex.EncodeToString(sum[:])
}
