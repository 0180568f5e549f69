package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current tables")

// checkGolden pins a table's rendering to testdata/<name>.golden, so a
// change to the simulator that moves any cell shows up as a reviewable
// diff of the golden file rather than only as a shape predicate that
// still holds. The tables are compared on amd64 only: elsewhere Go may
// fuse a multiply and an add, which moves the last digit of a float.
func checkGolden(t *testing.T, tb *Table) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	path := filepath.Join("testdata", tb.Name+".golden")
	got := tb.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s (rerun with -update-golden to accept):\n%s", tb.Name, path, got)
	}
}

// parse a table cell as float.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tb.Name, row, col)
	}
	s := tb.Rows[row][col]
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tb.Name, row, col, s)
	}
	return v
}

func TestFig6Shape(t *testing.T) {
	tb, err := Fig6(QuickLRBScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	if len(tb.Rows) < 5 {
		t.Fatalf("too few rows: %d", len(tb.Rows))
	}
	// Input rate grows; throughput tracks it within 20% at the end; VM
	// count is non-decreasing overall and grew beyond the initial 7.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if cell(t, tb, len(tb.Rows)-1, 1) <= cell(t, tb, 0, 1) {
		t.Errorf("input did not grow: %v -> %v", first[1], last[1])
	}
	in := cell(t, tb, len(tb.Rows)-1, 1)
	th := cell(t, tb, len(tb.Rows)-1, 2)
	if th < 0.8*in {
		t.Errorf("final throughput %v below 80%% of input %v", th, in)
	}
	if cell(t, tb, len(tb.Rows)-1, 3) <= cell(t, tb, 0, 3) {
		t.Errorf("VMs did not grow: %v -> %v", first[3], last[3])
	}
}

func TestFig7Shape(t *testing.T) {
	tb, err := Fig7(QuickLRBScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	if !strings.Contains(tb.Observation, "within the 5 s LRB bound") {
		t.Errorf("latency bound violated: %s", tb.Observation)
	}
}

func TestFig8Shape(t *testing.T) {
	tb, err := Fig8(QuickLRBScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// Consumed rate climbs toward the input; the system starts
	// under-provisioned and drops tuples.
	first := cell(t, tb, 0, 1)
	last := cell(t, tb, len(tb.Rows)-1, 1)
	if last <= first {
		t.Errorf("consumed rate did not climb: %v -> %v", first, last)
	}
	if !strings.Contains(tb.Observation, "dropped") {
		t.Errorf("open loop should drop while under-provisioned: %s", tb.Observation)
	}
}

func TestFig9Shape(t *testing.T) {
	tb, err := Fig9(QuickLRBScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// VMs monotonically decrease with δ (column 1).
	for i := 1; i < len(tb.Rows); i++ {
		if cell(t, tb, i, 1) > cell(t, tb, i-1, 1) {
			t.Errorf("VMs increased with δ between rows %d and %d", i-1, i)
		}
	}
	if cell(t, tb, 0, 1) <= cell(t, tb, len(tb.Rows)-1, 1) {
		t.Error("δ sweep shows no allocation spread")
	}
}

func TestFig10Shape(t *testing.T) {
	tb, err := Fig10(QuickLRBScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// Manual rows: P95 falls (or stays flat) as the budget grows; the
	// last row is the dynamic policy.
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "dynamic" {
		t.Fatalf("last row = %v", last)
	}
	smallBudgetP95 := cell(t, tb, 0, 3)
	bigBudgetP95 := cell(t, tb, len(tb.Rows)-2, 3)
	if bigBudgetP95 > smallBudgetP95 {
		t.Errorf("more manual VMs should not raise P95: %v -> %v", smallBudgetP95, bigBudgetP95)
	}
	// The dynamic policy's latency is comparable to the generous manual
	// allocations (within 5x of the best).
	dynP95 := cell(t, tb, len(tb.Rows)-1, 3)
	if dynP95 > 5*bigBudgetP95+100 {
		t.Errorf("dynamic P95 %v far above manual %v", dynP95, bigBudgetP95)
	}
}

func TestFig11Shape(t *testing.T) {
	tb, err := Fig11(QuickRecoveryScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// R+SM < SR and R+SM < UB at every rate; the gap grows with rate.
	var prevGap float64
	for i := range tb.Rows {
		rsm := cell(t, tb, i, 1)
		sr := cell(t, tb, i, 2)
		ub := cell(t, tb, i, 3)
		if rsm >= sr || rsm >= ub {
			t.Errorf("row %d: R+SM %v not fastest (SR %v, UB %v)", i, rsm, sr, ub)
		}
		gap := ub - rsm
		if gap < prevGap {
			t.Errorf("row %d: UB-R+SM gap shrank (%v after %v)", i, gap, prevGap)
		}
		prevGap = gap
	}
}

func TestFig12Shape(t *testing.T) {
	tb, err := Fig12(QuickRecoveryScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// Recovery time is non-decreasing in the interval (per rate column)
	// and in the rate (per interval row).
	for col := 1; col <= 3; col++ {
		for i := 1; i < len(tb.Rows); i++ {
			if cell(t, tb, i, col)+0.11 < cell(t, tb, i-1, col) {
				t.Errorf("col %d: recovery fell between rows %d and %d", col, i-1, i)
			}
		}
	}
	for i := range tb.Rows {
		if cell(t, tb, i, 3)+0.11 < cell(t, tb, i, 1) {
			t.Errorf("row %d: higher rate recovered faster", i)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tb, err := Fig13(QuickRecoveryScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// Parallel loses at the shortest interval and the serial-parallel
	// difference shifts in parallel's favour as the interval grows.
	shortSerial, shortPar := cell(t, tb, 0, 1), cell(t, tb, 0, 2)
	if shortPar <= shortSerial {
		t.Errorf("parallel should lose at c=1 s: serial %v vs parallel %v", shortSerial, shortPar)
	}
	longSerial, longPar := cell(t, tb, len(tb.Rows)-1, 1), cell(t, tb, len(tb.Rows)-1, 2)
	if (longSerial - longPar) <= (shortSerial - shortPar) {
		t.Errorf("parallel advantage did not grow: short %v/%v, long %v/%v",
			shortSerial, shortPar, longSerial, longPar)
	}
}

func TestFig14Shape(t *testing.T) {
	tb, err := Fig14(QuickOverheadScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// Large state P95 dominates small state; baseline is flat and low.
	for col := 1; col <= 3; col++ {
		small := cell(t, tb, 0, col)
		large := cell(t, tb, 2, col)
		base := cell(t, tb, 3, col)
		if large <= small {
			t.Errorf("col %d: large state P95 %v not above small %v", col, large, small)
		}
		if base > small+20 {
			t.Errorf("col %d: baseline %v above checkpointed small state %v", col, base, small)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tb, err := Fig15(QuickOverheadScale(), QuickRecoveryScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tb)
	// Latency falls with the interval; recovery time rises.
	firstLat := cell(t, tb, 0, 1)
	lastLat := cell(t, tb, len(tb.Rows)-1, 1)
	if lastLat >= firstLat {
		t.Errorf("P95 latency did not fall: %v -> %v", firstLat, lastLat)
	}
	firstRec := cell(t, tb, 0, 2)
	lastRec := cell(t, tb, len(tb.Rows)-1, 2)
	if lastRec <= firstRec {
		t.Errorf("recovery time did not rise: %v -> %v", firstRec, lastRec)
	}
}

func TestAblations(t *testing.T) {
	t.Run("backup-placement", func(t *testing.T) {
		tb, err := AblationBackupPlacement()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tb)
		hashedMax := cell(t, tb, 0, 2)
		fixedMax := cell(t, tb, 1, 2)
		if hashedMax >= fixedMax {
			t.Errorf("hashed max-per-host %v not below fixed %v", hashedMax, fixedMax)
		}
	})
	t.Run("vm-pool", func(t *testing.T) {
		tb, err := AblationVMPool()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tb)
		noPool := cell(t, tb, 0, 1)
		pooled := cell(t, tb, 1, 1)
		if pooled*5 > noPool {
			t.Errorf("pool should cut recovery many-fold: %v vs %v", pooled, noPool)
		}
	})
	t.Run("incremental-checkpoint", func(t *testing.T) {
		tb, err := AblationIncrementalCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tb)
		// Delta is never larger than full; at 1% dirty it is far
		// smaller.
		if cell(t, tb, 0, 2) >= cell(t, tb, 0, 1)/10 {
			t.Errorf("1%% dirty delta %v not ≪ full %v", tb.Rows[0][2], tb.Rows[0][1])
		}
	})
	t.Run("key-split", func(t *testing.T) {
		tb, err := AblationKeySplit()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tb)
		evenImb := cell(t, tb, 0, 3)
		guidedImb := cell(t, tb, 1, 3)
		if guidedImb >= evenImb {
			t.Errorf("guided imbalance %v not below even %v", guidedImb, evenImb)
		}
	})
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Errorf("registry has %d entries: %v", len(names), names)
	}
	if _, err := Run("nosuch", Scale{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	tb, err := Run("ablation-incremental-checkpoint", Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() == "" {
		t.Error("empty rendering")
	}
}
