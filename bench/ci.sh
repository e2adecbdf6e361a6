#!/usr/bin/env bash
# Smoke test of the benchmark, for CI: vets and tests the package, runs
# every workload briefly (untraced and traced), validates each result line
# against BENCHMARK.json, and checks that the Chrome trace of a traced run
# parses and left no span open. About a minute; it judges no timing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

(cd "$here" && go vet . && go test -count=1 .)

# validate <workload> <end_to_end|per_layer>: reads a result line on stdin.
validate() {
	python3 -c '
import json, sys
workload, kind = sys.argv[1], sys.argv[2]
declared = {m["name"]: m["unit"] for m in json.load(open(sys.argv[3]))[kind]}
result = json.loads(sys.stdin.read().strip().splitlines()[-1])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == declared, sorted(set(got) ^ set(declared))
if kind == "end_to_end":
    zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
    assert not zero, zero
else:
    assert result["metrics"]["harness.open_spans"]["value"] == 0
    assert result["metrics"]["recovery.lost_acked"]["value"] == 0
    assert result["metrics"]["server.shed_per_op"]["value"] == 0
print("ok  %-14s %-10s %d metrics, %d operations" % (workload, kind, len(got), result["attempted"]))
' "$1" "$2" "$root/BENCHMARK.json"
}

for workload in join-hot join-cold select-served mixed-rw; do
	bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 0.6 --slices 2 --trace 0 | validate "$workload" end_to_end
	bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 0.6 --slices 2 --trace 1 | validate "$workload" per_layer
	python3 -c '
import json, sys
events = json.load(open(sys.argv[1]))
spans = [e for e in events if e["ph"] == "X"]
assert spans and all(e["dur"] >= 0 for e in spans), "no spans"
assert any(e["name"].startswith("harness.") for e in spans), "no harness span"
print("ok  %-14s trace      %d spans" % (sys.argv[2], len(spans)))
' "$root/.bench_build/trace-$workload.json" "$workload"
done
