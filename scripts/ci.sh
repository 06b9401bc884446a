#!/usr/bin/env bash
# CI entry point: a warning-free build, a warning-free clippy,
# warning-free API docs, test, slumbench's own tests, then one daemon
# smoke. Everything a single process can show — determinism across
# execution plans, the golden artifacts, the `repro` command line —
# lives in `cargo test`; the smoke covers what needs a real daemon
# process: a `kill -9`, on-disk corruption and a restart over the same
# root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The build must print no warning. Cargo replays the warnings of the
# crates it does not rebuild, so this one build's output covers every
# target.
build_log="$(mktemp -t CI_BUILD.XXXXXX.txt)"
cargo build --release --all-targets 2>&1 | tee "$build_log"
if grep -q '^warning:' "$build_log"; then
    rm -f "$build_log"
    echo "ci.sh: the build printed warnings"
    exit 1
fi
rm -f "$build_log"
# Clippy's default lints over every target of the workspace's own
# crates; any lint fails CI.
cargo clippy --offline --release --all-targets -- -D warnings
# The API docs must build without a warning, so a doc link to a private
# or deleted item fails CI.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q
# slumbench is a workspace of its own, so the root `cargo test` skips
# its unit tests and its toy smoke of every workload.
cargo test -q --offline --manifest-path crates/bench/src/bin/slumbench/Cargo.toml

# Daemon smoke: one `repro serve` under harsh injected storage faults
# takes an exchange and an adnet tenant, is killed with `kill -9` after
# its first checkpoint, gets its newest checkpoint generation
# corrupted, restarts over the same root and recovers both studies. The
# corrupt generation must be quarantined, never read, and the recovered
# exchange study must export byte-identical JSON to `repro json` at the
# same config.
repro_bin="$(pwd)/target/release/repro"
root="$(mktemp -d -t SLUMSERVE.XXXXXX)"
log="$(mktemp -t SERVE_LOG.XXXXXX.txt)"
daemon_export="$(mktemp -t SERVE_EXPORT.XXXXXX.json)"
batch_export="$(mktemp -t SERVE_BATCH.XXXXXX.json)"
daemon_pid=""
trap '[ -z "$daemon_pid" ] || kill -9 "$daemon_pid" 2>/dev/null || true
    rm -rf "$root" "$log" "$daemon_export" "$batch_export"' EXIT

fail() { echo "SERVE smoke test: $*"; exit 1; }

# Starts the daemon over "$root" and sets $daemon_pid and $addr.
start_daemon() {
    : > "$log"
    "$repro_bin" serve --port 0 --root "$root" --disk-fault-profile harsh \
        > "$log" 2>/dev/null &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        grep -q '^SERVE_ADDR ' "$log" 2>/dev/null && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited before binding"
        sleep 0.1
    done
    addr="$(awk '/^SERVE_ADDR /{print $2; exit}' "$log")"
    [ -n "$addr" ] || fail "daemon never printed SERVE_ADDR"
}

# The protocol client. `client ADDR submit` submits both tenants;
# `client ADDR recover EXPORT` resubmits them, drives both to done,
# checks the daemon's answers, writes the exchange study's export to
# EXPORT and shuts the daemon down.
client() {
    python3 - "$@" <<'EOF'
import json
import socket
import sys
import time

host, port = sys.argv[1].rsplit(":", 1)
stream = socket.create_connection((host, int(port)), timeout=30).makefile(
    "rw", encoding="utf-8", newline="\n")

def rpc(**request):
    stream.write(json.dumps(request) + "\n")
    stream.flush()
    response = json.loads(stream.readline())
    if not response.get("ok"):
        sys.exit(f"SERVE smoke test: {request['op']} failed: {response.get('error')}")
    return response

tenants = {"alpha": "exchange", "beta": "adnet"}

def submit(tenant):
    return rpc(op="submit-study", tenant=tenant, substrate=tenants[tenant], seed=2016,
               crawl_scale=0.0002, domain_scale=0.03, checkpoint_every=7)["study"]

ids = {tenant: submit(tenant) for tenant in tenants}
if sys.argv[2] == "submit":
    sys.exit(0)

deadline = time.time() + 120
while True:
    states = {t: rpc(op="study-status", study=i) for t, i in ids.items()}
    if all(s["state"] == "done" for s in states.values()):
        break
    for tenant, status in states.items():
        if status["state"] not in ("running", "done"):
            # An injected storage fault can fail a slice; resubmitting
            # resumes from the newest intact generation.
            ids[tenant] = submit(tenant)
    if time.time() > deadline:
        sys.exit(f"SERVE smoke test: studies did not recover in time: {states}")
    time.sleep(0.05)

alpha = ids["alpha"]
probe = states["alpha"].get("sample_url")
if not probe:
    sys.exit("SERVE smoke test: done study reported no sample_url")
if rpc(op="query-verdict", study=alpha, url=probe).get("known") is not True:
    sys.exit(f"SERVE smoke test: the scanned URL {probe!r} has no verdict")
miss = rpc(op="query-verdict", study=alpha, url="http://never-crawled.example/")
if miss.get("known") is not False:
    sys.exit("SERVE smoke test: an uncrawled URL reported as known")

counters = json.loads(rpc(op="stream-metrics")["metrics"])["counters"]
for tenant in tenants:
    if counters.get(f"tenant.{tenant}.crawl.pages", 0) <= 0:
        sys.exit(f"SERVE smoke test: no crawl.pages rollup for tenant {tenant}")
for name in ("serve.shed.requests", "serve.shed.connections",
             "serve.tenants.poisoned"):
    if name not in counters:
        sys.exit(f"SERVE smoke test: resilience counter {name!r} missing")
quarantined = counters.get("ckpt.quarantined", 0)
if quarantined < 1:
    sys.exit("SERVE smoke test: the corrupted generation was never quarantined")

export = rpc(op="study-status", study=alpha, include_export=True).get("export")
if not export:
    sys.exit("SERVE smoke test: the recovered study returned no export")
with open(sys.argv[3], "w") as out:
    # `repro json` prints the document with a trailing newline.
    out.write(export + "\n")
rpc(op="shutdown")
print(f"SERVE smoke test: recovered both tenants on {sys.argv[1]}, "
      f"{quarantined} generation(s) quarantined, verdict known for {probe}")
EOF
}

start_daemon
client "$addr" submit
for _ in $(seq 1 200); do
    find "$root" -name 'ckpt-*.slumckpt' | grep -q . && break
    kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died before checkpointing"
    sleep 0.05
done
find "$root" -name 'ckpt-*.slumckpt' | grep -q . || fail "no checkpoint landed before the kill"
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# The checkpoints on disk are format 2: cursor and visit lines, no
# record bodies. Harsh disk faults may tear or flip any single file, so
# one file must begin with the magic line and none may hold a record's
# `"har":` key.
magic_lines="$(find "$root" -name 'ckpt-*.slumckpt' -exec head -n 1 {} \;)"
printf '%s\n' "$magic_lines" | grep -qx 'SLUMCKPT 2' \
    || fail "no checkpoint on disk begins with SLUMCKPT 2"
with_records="$(find "$root" -name 'ckpt-*.slumckpt' -exec grep -l '"har":' {} + || true)"
[ -z "$with_records" ] || fail "checkpoints hold record bodies: $with_records"

# Flip a byte in the middle of the newest generation on disk.
newest="$(find "$root" -name 'ckpt-*.slumckpt' | sort | tail -n 1)"
python3 - "$newest" <<'EOF'
import pathlib
import sys

path = pathlib.Path(sys.argv[1])
blob = bytearray(path.read_bytes())
blob[len(blob) // 2] ^= 0xFF
path.write_bytes(blob)
print(f"SERVE smoke test: killed the daemon, corrupted {path.name}")
EOF

start_daemon
client "$addr" recover "$daemon_export"
wait "$daemon_pid" || fail "daemon exited non-zero after shutdown"
daemon_pid=""

"$repro_bin" json --scale 0.0002 --seed 2016 --substrate exchange > "$batch_export" 2>/dev/null
cmp "$daemon_export" "$batch_export" || fail "recovered export diverged from repro json"
echo "SERVE smoke test OK: kill -9, corruption and harsh disk faults; export byte-identical"

echo "ci.sh: all checks passed"
