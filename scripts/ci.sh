#!/usr/bin/env bash
# CI entry point: build, test, then smoke-test the observability path
# end to end (repro --metrics must emit a parseable METRICS.json with
# nonzero key counters).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --all-targets
cargo test -q
# slumbench is a workspace of its own, so the root `cargo test` skips
# its unit tests and its toy smoke of every workload.
cargo test -q --offline --manifest-path crates/bench/src/bin/slumbench/Cargo.toml

metrics_file="$(mktemp -t METRICS.XXXXXX.json)"
trap 'rm -f "$metrics_file"' EXIT

cargo run --release -p slum-bench --bin repro -- table1 \
    --scale 0.0005 --seed 2016 --metrics "$metrics_file" >/dev/null

python3 - "$metrics_file" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    snapshot = json.load(f)

counters = snapshot["counters"]
for key in ("crawl.pages", "filter.regular_out", "scan.scans",
            "scan.cache.url_features.lookups"):
    if counters.get(key, 0) <= 0:
        sys.exit(f"METRICS smoke test: counter {key!r} is zero or missing")

if snapshot["gauges"].get("config.seed") != 2016:
    sys.exit("METRICS smoke test: config.seed gauge mismatch")

# The fault layers (scan-service and exchange-side) are opt-in: a
# fault-free run must still register their counters (dashboards rely on
# their presence) and report zero faults.
for key in ("scan.faults.injected", "scan.retries", "scan.degraded_verdicts",
            "crawl.faults.injected", "crawl.faults.lost_steps",
            "crawl.faults.outages", "crawl.faults.shutdowns",
            "crawl.resume.segments_restored"):
    if key not in counters:
        sys.exit(f"METRICS smoke test: fault counter {key!r} missing")
    if counters[key] != 0:
        sys.exit(f"METRICS smoke test: fault-free run has {key!r} = "
                 f"{counters[key]}, expected 0")

# The JS-VM counters are always registered (the default engine is the
# bytecode VM, so they are live here; a tree-walk run reports zeros —
# checked by the ENGINE smoke test below).
for key in ("js.vm.compiles", "js.vm.module_cache.lookups",
            "js.vm.module_cache.hits", "js.vm.instructions",
            "js.vm.budget_exhaustions"):
    if key not in counters:
        sys.exit(f"METRICS smoke test: JS-VM counter {key!r} missing")
if snapshot["gauges"].get("config.js_engine_vm") != 1:
    sys.exit("METRICS smoke test: default engine must be the bytecode VM")

print(f"METRICS smoke test OK: {len(counters)} counters, "
      f"{len(snapshot['spans'])} spans")
EOF

fault_metrics_file="$(mktemp -t METRICS_FAULT.XXXXXX.json)"
trap 'rm -f "$metrics_file" "$fault_metrics_file"' EXIT

cargo run --release -p slum-bench --bin repro -- table1 \
    --scale 0.0005 --seed 2016 --fault-profile default \
    --metrics "$fault_metrics_file" >/dev/null

python3 - "$fault_metrics_file" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    snapshot = json.load(f)

counters = snapshot["counters"]
for key in ("scan.faults.injected", "scan.retries", "scan.degraded_verdicts"):
    if counters.get(key, 0) <= 0:
        sys.exit(f"FAULT smoke test: counter {key!r} is zero or missing "
                 "under --fault-profile default")

print("FAULT smoke test OK: "
      f"{counters['scan.faults.injected']} injected, "
      f"{counters['scan.retries']} retries, "
      f"{counters['scan.degraded_verdicts']} degraded verdicts")
EOF

# Checkpoint/resume smoke test: a crawl killed between checkpoint
# rounds and resumed from disk must reproduce the uninterrupted run
# byte for byte — same table output, same counters (minus the
# crawl.resume.* bookkeeping that records the recovery itself).
ckpt_dir="$(mktemp -d -t SLUMCKPT.XXXXXX)"
straight_out="$(mktemp -t REPRO_STRAIGHT.XXXXXX.txt)"
resumed_out="$(mktemp -t REPRO_RESUMED.XXXXXX.txt)"
resumed_metrics_file="$(mktemp -t METRICS_RESUMED.XXXXXX.json)"
trap 'rm -rf "$metrics_file" "$fault_metrics_file" "$ckpt_dir" \
    "$straight_out" "$resumed_out" "$resumed_metrics_file"' EXIT

cargo run --release -p slum-bench --bin repro -- table1 \
    --scale 0.0005 --seed 2016 --crawl-fault-profile default \
    > "$straight_out" 2>/dev/null

cargo run --release -p slum-bench --bin repro -- table1 \
    --scale 0.0005 --seed 2016 --crawl-fault-profile default \
    --checkpoint "$ckpt_dir" --checkpoint-every 32 --kill-after-round 2 \
    >/dev/null 2>&1

ls "$ckpt_dir"/*.slumckpt >/dev/null \
    || { echo "RESUME smoke test: no checkpoint files written"; exit 1; }

cargo run --release -p slum-bench --bin repro -- table1 \
    --scale 0.0005 --seed 2016 --crawl-fault-profile default \
    --resume "$ckpt_dir" --checkpoint-every 32 \
    --metrics "$resumed_metrics_file" > "$resumed_out" 2>/dev/null

diff -u "$straight_out" "$resumed_out" \
    || { echo "RESUME smoke test: resumed table1 diverged from straight run"; exit 1; }

python3 - "$resumed_metrics_file" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]

if counters.get("crawl.resume.segments_restored", 0) != 2:
    sys.exit("RESUME smoke test: expected 2 restored segments, got "
             f"{counters.get('crawl.resume.segments_restored')}")
if counters.get("crawl.resume.records_restored", 0) <= 0:
    sys.exit("RESUME smoke test: no records restored from the checkpoint")
if counters.get("crawl.faults.injected", 0) <= 0:
    sys.exit("RESUME smoke test: --crawl-fault-profile default injected nothing")

print("RESUME smoke test OK: table1 identical after kill+resume, "
      f"{counters['crawl.resume.records_restored']} records restored, "
      f"{counters['crawl.faults.lost_steps']} slots lost to faults")
EOF

# CLI smoke test: repro must reject what it does not know — an unknown
# option (such as the removed --overlap) or a misspelt artifact name —
# with a non-zero exit instead of silently running something else.
repro_bin="$(pwd)/target/release/repro"
if "$repro_bin" table1 --overlap >/dev/null 2>&1; then
    echo "CLI smoke test: 'repro table1 --overlap' exited 0, expected a usage error"; exit 1
fi
if "$repro_bin" tabel1 >/dev/null 2>&1; then
    echo "CLI smoke test: 'repro tabel1' exited 0, expected a usage error"; exit 1
fi
# The removed bench-serve artifact and --quick flag are gone, a
# --checkpoint-every with no checkpoint dir to apply it to is a usage
# error, and --resume from a dir holding no checkpoint must fail rather
# than quietly crawl from scratch.
empty_dir="$(mktemp -d -t SLUMEMPTY.XXXXXX)"
trap 'rm -rf "$metrics_file" "$fault_metrics_file" "$ckpt_dir" \
    "$straight_out" "$resumed_out" "$resumed_metrics_file" "$empty_dir"' EXIT
if "$repro_bin" bench-serve >/dev/null 2>&1; then
    echo "CLI smoke test: 'repro bench-serve' exited 0, expected a usage error"; exit 1
fi
if "$repro_bin" table1 --quick >/dev/null 2>&1; then
    echo "CLI smoke test: 'repro table1 --quick' exited 0, expected a usage error"; exit 1
fi
if "$repro_bin" table1 --checkpoint-every 8 >/dev/null 2>&1; then
    echo "CLI smoke test: 'repro table1 --checkpoint-every 8' exited 0, expected a usage error"
    exit 1
fi
if "$repro_bin" table1 --resume "$empty_dir" >/dev/null 2>&1; then
    echo "CLI smoke test: 'repro table1 --resume <empty dir>' exited 0, expected a failure"
    exit 1
fi
echo "CLI smoke test OK: unknown options and artifact names are rejected"

# Engine smoke test: the same seeded study under the bytecode VM and
# under the tree-walk interpreter must export byte-identical artifacts;
# the interpreter run must still register the js.vm.* counters (at
# zero).
vm_json="$(mktemp -t REPRO_VM.XXXXXX.json)"
interp_json="$(mktemp -t REPRO_INTERP.XXXXXX.json)"
interp_metrics_file="$(mktemp -t METRICS_INTERP.XXXXXX.json)"
trap 'rm -rf "$metrics_file" "$fault_metrics_file" "$ckpt_dir" \
    "$straight_out" "$resumed_out" "$resumed_metrics_file" "$empty_dir" \
    "$vm_json" "$interp_json" "$interp_metrics_file"' EXIT

cargo run --release -p slum-bench --bin repro -- json \
    --scale 0.001 --seed 2016 --js-engine vm > "$vm_json" 2>/dev/null

cargo run --release -p slum-bench --bin repro -- json \
    --scale 0.001 --seed 2016 --js-engine interp --workers 4 \
    --metrics "$interp_metrics_file" > "$interp_json" 2>/dev/null

cmp "$vm_json" "$interp_json" \
    || { echo "ENGINE smoke test: vm export diverged from the interpreter's"; exit 1; }

python3 - "$interp_metrics_file" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    snapshot = json.load(f)

counters = snapshot["counters"]
for key in ("js.vm.compiles", "js.vm.module_cache.lookups",
            "js.vm.module_cache.hits", "js.vm.instructions",
            "js.vm.budget_exhaustions"):
    if key not in counters:
        sys.exit(f"ENGINE smoke test: counter {key!r} missing under --js-engine interp")
    if counters[key] != 0:
        sys.exit(f"ENGINE smoke test: tree-walk run has {key!r} = "
                 f"{counters[key]}, expected 0")
if snapshot["gauges"].get("config.js_engine_vm") != 0:
    sys.exit("ENGINE smoke test: interp run reports config.js_engine_vm != 0")

print("ENGINE smoke test OK: vm export byte-identical to the interpreter, "
      "js.vm.* registered at zero")
EOF

# Substrate smoke test: the pluggable-substrate dispatch must run the
# same pipeline end to end over all three ecosystems, each reporting
# its own sources in the SubstrateComparison artifact, with the
# always-registered crawl.substrate.* counters tallying only the
# active substrate.
substrate_out="$(mktemp -t REPRO_SUBSTRATE.XXXXXX.txt)"
substrate_metrics_file="$(mktemp -t METRICS_SUBSTRATE.XXXXXX.json)"
golden_out="$(mktemp -t REPRO_GOLDEN.XXXXXX.txt)"
trap 'rm -rf "$metrics_file" "$fault_metrics_file" "$ckpt_dir" \
    "$straight_out" "$resumed_out" "$resumed_metrics_file" "$empty_dir" \
    "$vm_json" "$interp_json" "$interp_metrics_file" \
    "$substrate_out" "$substrate_metrics_file" "$golden_out"' EXIT

for substrate in exchange adnet torrent; do
    cargo run --release -p slum-bench --bin repro -- substrates \
        --scale 0.0005 --seed 2016 --substrate "$substrate" \
        --metrics "$substrate_metrics_file" > "$substrate_out" 2>/dev/null

    python3 - "$substrate" "$substrate_out" "$substrate_metrics_file" <<'EOF'
import json
import sys

substrate = sys.argv[1]
with open(sys.argv[2]) as f:
    rendered = f.read()
with open(sys.argv[3]) as f:
    snapshot = json.load(f)

expected_sources = {
    "exchange": ["10KHits", "SendSurf", "Easyhits4u"],
    "adnet": ["AdRotor", "ClickNimbus", "PopMatrix", "BannerBloom"],
    "torrent": ["OpenBay", "SeedNest", "RssLeech"],
}[substrate]

if f"substrate: {substrate}" not in rendered:
    sys.exit(f"SUBSTRATE smoke test: render lacks 'substrate: {substrate}' line")
for source in expected_sources:
    if source not in rendered:
        sys.exit(f"SUBSTRATE smoke test: {substrate} render lacks source {source!r}")
if "overall:" not in rendered or "malicious /" not in rendered:
    sys.exit(f"SUBSTRATE smoke test: {substrate} render lacks the overall summary row")

counters = snapshot["counters"]
# Every substrate's counters are always registered; only the active
# one may be nonzero.
for name in ("exchange", "adnet", "torrent"):
    for suffix in ("pages", "sources"):
        key = f"crawl.substrate.{name}.{suffix}"
        if key not in counters:
            sys.exit(f"SUBSTRATE smoke test: counter {key!r} missing")
        if name != substrate and counters[key] != 0:
            sys.exit(f"SUBSTRATE smoke test: inactive counter {key!r} = "
                     f"{counters[key]}, expected 0")
if counters[f"crawl.substrate.{substrate}.pages"] <= 0:
    sys.exit(f"SUBSTRATE smoke test: {substrate} crawled no pages")
if counters[f"crawl.substrate.{substrate}.sources"] != len(
        {"exchange": range(9), "adnet": range(4), "torrent": range(3)}[substrate]):
    sys.exit(f"SUBSTRATE smoke test: {substrate} reports wrong source count")

print(f"SUBSTRATE smoke test OK ({substrate}): "
      f"{counters[f'crawl.substrate.{substrate}.pages']} pages over "
      f"{counters[f'crawl.substrate.{substrate}.sources']} sources")
EOF
done

# Exchange golden byte-diff: the default substrate must stay
# byte-identical to the pre-substrate pipeline at the pinned
# seed/scale (the same pin tests/exchange_golden_regression.rs holds).
cargo run --release -p slum-bench --bin repro -- \
    table1 table2 table3 table4 fig2 fig3 fig4 fig5 fig6 fig7 \
    --scale 0.0005 --seed 2016 > "$golden_out" 2>/dev/null

diff -u scripts/golden/exchange_artifacts.golden.txt "$golden_out" \
    || { echo "GOLDEN smoke test: exchange artifacts diverged from the golden pin"; exit 1; }
echo "GOLDEN smoke test OK: exchange artifacts byte-identical to the pin"

# Study-service smoke test: the resident daemon must accept two
# tenants' studies on different substrates, schedule them concurrently,
# answer a verdict query for a URL one study scanned, stream a metrics
# snapshot, and shut down cleanly — and a daemon-run study's export
# must be byte-identical to the batch path's for the same config.
serve_root="$(mktemp -d -t SLUMSERVE.XXXXXX)"
serve_log="$(mktemp -t SERVE_LOG.XXXXXX.txt)"
serve_export="$(mktemp -t SERVE_EXPORT.XXXXXX.json)"
serve_batch="$(mktemp -t SERVE_BATCH.XXXXXX.json)"
chaos_root="$(mktemp -d -t SLUMCHAOS.XXXXXX)"
chaos_log="$(mktemp -t CHAOS_LOG.XXXXXX.txt)"
chaos_export="$(mktemp -t CHAOS_EXPORT.XXXXXX.json)"
trap 'rm -rf "$metrics_file" "$fault_metrics_file" "$ckpt_dir" \
    "$straight_out" "$resumed_out" "$resumed_metrics_file" "$empty_dir" \
    "$vm_json" "$interp_json" "$interp_metrics_file" \
    "$substrate_out" "$substrate_metrics_file" "$golden_out" \
    "$serve_root" "$serve_log" "$serve_export" "$serve_batch" \
    "$chaos_root" "$chaos_log" "$chaos_export"' EXIT

"$repro_bin" serve --port 0 --root "$serve_root" > "$serve_log" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^SERVE_ADDR ' "$serve_log" 2>/dev/null && break
    kill -0 "$serve_pid" 2>/dev/null \
        || { echo "SERVE smoke test: daemon exited before binding"; exit 1; }
    sleep 0.1
done
serve_addr="$(awk '/^SERVE_ADDR /{print $2; exit}' "$serve_log")"
[ -n "$serve_addr" ] \
    || { echo "SERVE smoke test: daemon never printed SERVE_ADDR"; exit 1; }

python3 - "$serve_addr" "$serve_export" <<'EOF'
import json
import socket
import sys
import time

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
stream = sock.makefile("rw", encoding="utf-8", newline="\n")

def rpc(**request):
    stream.write(json.dumps(request) + "\n")
    stream.flush()
    response = json.loads(stream.readline())
    if not response.get("ok"):
        sys.exit(f"SERVE smoke test: {request.get('op')} failed: "
                 f"{response.get('error')}")
    return response

study_config = dict(seed=2016, crawl_scale=0.0002, domain_scale=0.03,
                    checkpoint_every=7)
# Both submissions land before either study finishes, so the scheduler
# interleaves their crawl segments.
alpha = rpc(op="submit-study", tenant="alpha", substrate="exchange",
            **study_config)["study"]
beta = rpc(op="submit-study", tenant="beta", substrate="adnet",
           **study_config)["study"]

deadline = time.time() + 120
while True:
    states = {i: rpc(op="study-status", study=i) for i in (alpha, beta)}
    if all(s["state"] == "done" for s in states.values()):
        break
    if any(s["state"] == "failed" for s in states.values()):
        sys.exit(f"SERVE smoke test: a study failed: {states}")
    if time.time() > deadline:
        sys.exit("SERVE smoke test: studies did not finish in time")
    time.sleep(0.05)

# Verdict query against a URL the exchange study scanned: the done
# status carries a guaranteed-known probe URL.
probe = states[alpha].get("sample_url")
if not probe:
    sys.exit("SERVE smoke test: done study reported no sample_url")
verdict = rpc(op="query-verdict", study=alpha, url=probe)
if verdict.get("known") is not True or verdict.get("malicious") is None:
    sys.exit(f"SERVE smoke test: probe URL {probe!r} has no verdict: {verdict}")
miss = rpc(op="query-verdict", study=alpha, url="http://never-crawled.example/")
if miss.get("known") is not False:
    sys.exit("SERVE smoke test: uncrawled URL reported as known")

# One metrics stream: both tenants namespaced, service counters live.
metrics = json.loads(rpc(op="stream-metrics")["metrics"])
counters = metrics["counters"]
for tenant in ("alpha", "beta"):
    if counters.get(f"tenant.{tenant}.crawl.pages", 0) <= 0:
        sys.exit(f"SERVE smoke test: no crawl.pages rollup for tenant {tenant}")
if counters.get("serve.studies.completed", 0) < 2:
    sys.exit("SERVE smoke test: completion counter below 2")

# Resilience counters are always registered: a clean run must export
# explicit zeros, not absent keys — an absent key would make "no
# shedding happened" indistinguishable from "shedding isn't counted".
for name in ("serve.shed.requests", "serve.shed.connections",
             "serve.tenants.poisoned", "serve.tenants.stalled",
             "ckpt.quarantined"):
    if name not in counters:
        sys.exit(f"SERVE smoke test: resilience counter {name!r} missing")
    if counters[name] != 0:
        sys.exit(f"SERVE smoke test: clean run has nonzero {name!r} = "
                 f"{counters[name]}")

# The exchange tenant's artifacts, for the batch diff below.
status = rpc(op="study-status", study=alpha, include_export=True)
export = status.get("export")
if not export:
    sys.exit("SERVE smoke test: include_export returned nothing")
with open(sys.argv[2], "w") as out:
    # `repro json` prints the document with a trailing newline.
    out.write(export + "\n")

rpc(op="shutdown")
print(f"SERVE smoke test OK: 2 concurrent studies on {sys.argv[1]}, "
      f"verdict known for {probe}, metrics streamed, clean shutdown")
EOF

wait "$serve_pid" \
    || { echo "SERVE smoke test: daemon exited non-zero"; exit 1; }

# Batch diff: the daemon-run exchange study must export byte-identical
# JSON to the plain batch path at the same config.
"$repro_bin" json --scale 0.0002 --seed 2016 --substrate exchange \
    > "$serve_batch" 2>/dev/null
cmp "$serve_export" "$serve_batch" \
    || { echo "SERVE smoke test: daemon export diverged from the batch path"; exit 1; }
echo "SERVE smoke test OK: daemon export byte-identical to the batch path"

# Chaos smoke test: the daemon, running with harsh injected storage
# faults, survives a kill -9 mid-study plus on-disk corruption of its
# newest checkpoint generation — and the recovered tenant's export is
# still byte-identical to the batch path computed above. The corrupted
# generation must show up quarantined, never silently read.
"$repro_bin" serve --port 0 --root "$chaos_root" --disk-fault-profile harsh \
    > "$chaos_log" 2>/dev/null &
chaos_pid=$!
for _ in $(seq 1 100); do
    grep -q '^SERVE_ADDR ' "$chaos_log" 2>/dev/null && break
    kill -0 "$chaos_pid" 2>/dev/null \
        || { echo "CHAOS smoke test: daemon exited before binding"; exit 1; }
    sleep 0.1
done
chaos_addr="$(awk '/^SERVE_ADDR /{print $2; exit}' "$chaos_log")"
[ -n "$chaos_addr" ] \
    || { echo "CHAOS smoke test: daemon never printed SERVE_ADDR"; exit 1; }

# Submit one tenant (same config as the batch reference) and leave the
# study in flight.
python3 - "$chaos_addr" <<'EOF'
import json
import socket
import sys

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
stream = sock.makefile("rw", encoding="utf-8", newline="\n")
stream.write(json.dumps(dict(op="submit-study", tenant="storm",
                             substrate="exchange", seed=2016,
                             crawl_scale=0.0002, domain_scale=0.03,
                             checkpoint_every=7)) + "\n")
stream.flush()
response = json.loads(stream.readline())
if not response.get("ok"):
    sys.exit(f"CHAOS smoke test: submit failed: {response.get('error')}")
EOF

# Wait for the first checkpoint generation to land, then kill -9 the
# daemon and flip a byte in the middle of the newest generation.
for _ in $(seq 1 200); do
    find "$chaos_root" -name 'ckpt-*.slumckpt' 2>/dev/null | grep -q . && break
    kill -0 "$chaos_pid" 2>/dev/null \
        || { echo "CHAOS smoke test: daemon died before checkpointing"; exit 1; }
    sleep 0.05
done
find "$chaos_root" -name 'ckpt-*.slumckpt' 2>/dev/null | grep -q . \
    || { echo "CHAOS smoke test: no checkpoint landed before the kill"; exit 1; }
kill -9 "$chaos_pid" 2>/dev/null || true
wait "$chaos_pid" 2>/dev/null || true

python3 - "$chaos_root" <<'EOF'
import pathlib
import sys

ckpts = sorted(pathlib.Path(sys.argv[1]).rglob("ckpt-*.slumckpt"))
if not ckpts:
    sys.exit("CHAOS smoke test: checkpoints vanished after the kill")
blob = bytearray(ckpts[-1].read_bytes())
blob[len(blob) // 2] ^= 0xFF
ckpts[-1].write_bytes(blob)
print(f"CHAOS smoke test: killed the daemon, corrupted {ckpts[-1].name}")
EOF

# Restart over the same root (faults still armed). Resubmitting the
# same (tenant, config) resumes past the quarantined generation.
: > "$chaos_log"
"$repro_bin" serve --port 0 --root "$chaos_root" --disk-fault-profile harsh \
    > "$chaos_log" 2>/dev/null &
chaos_pid=$!
for _ in $(seq 1 100); do
    grep -q '^SERVE_ADDR ' "$chaos_log" 2>/dev/null && break
    kill -0 "$chaos_pid" 2>/dev/null \
        || { echo "CHAOS smoke test: daemon did not survive the restart"; exit 1; }
    sleep 0.1
done
chaos_addr="$(awk '/^SERVE_ADDR /{print $2; exit}' "$chaos_log")"
[ -n "$chaos_addr" ] \
    || { echo "CHAOS smoke test: restarted daemon never printed SERVE_ADDR"; exit 1; }

python3 - "$chaos_addr" "$chaos_export" <<'EOF'
import json
import socket
import sys
import time

host, port = sys.argv[1].rsplit(":", 1)
sock = socket.create_connection((host, int(port)), timeout=30)
stream = sock.makefile("rw", encoding="utf-8", newline="\n")

def rpc(**request):
    stream.write(json.dumps(request) + "\n")
    stream.flush()
    response = json.loads(stream.readline())
    if not response.get("ok"):
        sys.exit(f"CHAOS smoke test: {request.get('op')} failed: "
                 f"{response.get('error')}")
    return response

config = dict(op="submit-study", tenant="storm", substrate="exchange",
              seed=2016, crawl_scale=0.0002, domain_scale=0.03,
              checkpoint_every=7)
study = rpc(**config)["study"]
deadline = time.time() + 120
while True:
    status = rpc(op="study-status", study=study)
    if status["state"] == "done":
        break
    if status["state"] != "running":
        # Injected storage faults can fail a slice; resubmitting the
        # same (tenant, config) resumes from the newest intact
        # generation — the same loop the chaos harness drains with.
        study = rpc(**config)["study"]
    if time.time() > deadline:
        sys.exit("CHAOS smoke test: study did not recover in time")
    time.sleep(0.05)

# The corruption must have left a quarantine scar, not a silent read.
metrics = json.loads(rpc(op="stream-metrics")["metrics"])
quarantined = metrics["counters"].get("ckpt.quarantined", 0)
if quarantined < 1:
    sys.exit("CHAOS smoke test: corrupted generation was never quarantined")

status = rpc(op="study-status", study=study, include_export=True)
export = status.get("export")
if not export:
    sys.exit("CHAOS smoke test: recovered study returned no export")
with open(sys.argv[2], "w") as out:
    out.write(export + "\n")

rpc(op="shutdown")
print(f"CHAOS smoke test: recovered on {sys.argv[1]}, "
      f"{quarantined} generation(s) quarantined")
EOF

wait "$chaos_pid" \
    || { echo "CHAOS smoke test: daemon exited non-zero"; exit 1; }
cmp "$chaos_export" "$serve_batch" \
    || { echo "CHAOS smoke test: recovered export diverged from the batch path"; exit 1; }
echo "CHAOS smoke test OK: kill -9 + corruption + harsh disk faults, recovered export byte-identical"

echo "ci.sh: all checks passed"
