package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro"
	"repro/internal/tools"
	"repro/internal/types"
)

// slurp reads one /procx file under root credentials.
func slurp(t *testing.T, s *repro.System, path string) []byte {
	t.Helper()
	b, err := s.Client(types.RootCred()).ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// psTable renders the final process table through the batched snapshot.
func psTable(t *testing.T, s *repro.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tools.PS(s.Client(types.RootCred()), &buf); err != nil {
		t.Fatalf("ps: %v", err)
	}
	return buf.Bytes()
}

// streams runs one scenario at smoke size with seed 42 on the
// deterministic scheduler and returns its kernel-wide ktrace stream, the
// trace counters page and the final process table.
func streams(t *testing.T, name string) (trace, stats, table []byte) {
	t.Helper()
	cfg := smokeConfig(name)
	cfg.Seed = 42
	// Bit-identical replay is a deterministic-scheduler contract; name it
	// explicitly rather than rely on the zero default.
	cfg.NCPU = 1
	// Modest capacity: EnableKTraceAll gives every process a ring of this
	// size, and the storm scenarios create hundreds of them.
	cfg.TraceCap = 1 << 16
	_, s, err := Run(name, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return slurp(t, s, "/procx/trace"), slurp(t, s, "/procx/ktrace"), psTable(t, s)
}

// TestWorkloadDeterminism replays every scenario twice with the same seed
// and demands a bit-identical simulation: the kernel-wide ktrace stream, the
// trace counters page, and the final process table must all match. The
// scenarios advertise seed-replayable runs; the trace is the oracle.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			trace1, stats1, table1 := streams(t, name)
			trace2, stats2, table2 := streams(t, name)
			if len(trace1) == 0 {
				t.Fatal("empty trace stream: scenario ran nothing")
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("trace streams differ: %d vs %d bytes", len(trace1), len(trace2))
			}
			if !bytes.Equal(stats1, stats2) {
				t.Errorf("trace counters differ:\n%s\nvs\n%s", stats1, stats2)
			}
			if !bytes.Equal(table1, table2) {
				t.Errorf("final process tables differ:\n%s\nvs\n%s", table1, table2)
			}
		})
	}
}

// TestWorkloadSeedSensitivity is the converse check: two different seeds
// must not replay the same simulation, or the "seedable" claim is vacuous.
// fork_storm picks family sizes and credentials from the stream, so its
// trace diverges immediately.
func TestWorkloadSeedSensitivity(t *testing.T) {
	run := func(seed int64) []byte {
		cfg := smokeConfig("fork_storm")
		cfg.Seed = seed
		cfg.TraceCap = 1 << 16
		_, s, err := Run("fork_storm", cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return slurp(t, s, "/procx/trace")
	}
	if bytes.Equal(run(1), run(2)) {
		t.Fatal("different seeds replayed an identical trace stream")
	}
}

// goldenDigests are the sha256 digests of every scenario's NCPU=1 run at
// smoke size, seed 42: the kernel-wide trace stream, the trace counters
// page and the final process table. TestWorkloadDeterminism compares two
// runs of the same build; these constants compare a build against the
// streams of the ones before it, so a change that shifts every trace the
// same way (a clock that lags, a reordered event) cannot pass unseen. A
// change that alters the simulation on purpose updates them and says why.
var goldenDigests = map[string][3]string{
	"fork_storm": {
		"e1ce3ffe557806c07980cf2f781c856d77345776bb3687e6f5cda71ce029f3d6",
		"1263f1a39c85bf95f619e63692deb4b2b58a05bb501378b92f879d2052e13aa6",
		"a2bc64bf39426f2d15a0bc04418bb7c301f3ab11e9810395aae025f2fa161df9",
	},
	"syscall_mill": {
		"f891aded28f362c18d55dd0202e55ac50be3f26ca11865297100e92cdf86b6a9",
		"c1e1ba2d2dc90d9fe0507c7ed771eb86b30e210cd4995ddca314576287e2e9e8",
		"a2bc64bf39426f2d15a0bc04418bb7c301f3ab11e9810395aae025f2fa161df9",
	},
	"pipe_pipeline": {
		"14414ba0ec26e2829b71300d12dec4eac65e2951abd5e0ac81b33ce488d0aecf",
		"dbd1b8c41ba90808d979fc6b6f4f5cd3c56ad2cea6aae9448f636db0e7a134ad",
		"a2bc64bf39426f2d15a0bc04418bb7c301f3ab11e9810395aae025f2fa161df9",
	},
	"debugger_fleet": {
		"b1351d1fa5a5746d8095be5497e160035c75b3e00f40e1e3ea923bd16f9e874f",
		"6e7147880884ee7c6267763dd0c6bda5b0a991bd5af83303d1cfe8be6a296826",
		"a2bc64bf39426f2d15a0bc04418bb7c301f3ab11e9810395aae025f2fa161df9",
	},
	"proc_scan": {
		"97309bf09eab4d2a36f3394be370e3abcb6ca0d26058e13db38b3c83853e6bce",
		"f452a03afa54a23282c1b5643ac2ad74ba5422cbeb3e9331e914befc3bae04ff",
		"ddb1e5f45898a966d4c21259ff05b3ca235468849dc566baa6035f0d919bf8d3",
	},
	"fs_churn": {
		"515e7e9fe13ef4f120cd304a74a05ab75a0b9759e681093e49862dcff7d626e6",
		"2abe741982f7bb920e6ad7a78850d704bd39d63d6485223d0a0fa3fbcbfa5bf5",
		"a2bc64bf39426f2d15a0bc04418bb7c301f3ab11e9810395aae025f2fa161df9",
	},
}

// TestWorkloadGoldenDigests replays every scenario at NCPU=1 and checks
// its streams against the committed digests.
func TestWorkloadGoldenDigests(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			trace, stats, table := streams(t, name)
			got := [3]string{digest(trace), digest(stats), digest(table)}
			if want := goldenDigests[name]; got != want {
				t.Errorf("digests (trace, counters, table) = %q, want %q", got, want)
			}
		})
	}
}

// digest is the hex sha256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
