#!/usr/bin/env python3
"""Self-test of mintcb's host-time benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, with short (1 s) runs of every workload:
  - the result line has exactly correct/attempted/failed/metrics, every
    end-to-end metric of BENCHMARK.json prints with its unit, and 0 ops
    fail;
  - a traced run prints every per-layer metric with its unit; the
    layers it names as not measured are exactly the ones the workload
    does not exercise, every other layer reads non-zero (except those
    that may or must read 0), and its span file parses and holds every
    layer span the workload names;
  - an injected failure (a gw-session request naming an unknown PAL) is
    counted as failed, not fatal;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

SPANS = {
    "gw-session": ["op", "sea.drain", "machine.build", "net.connect"],
    "svc-quoted": ["op", "sea.drain", "sea.shard", "sea.merge",
                   "machine.shard_build", "machine.build"],
}
# Layers a workload does not exercise: they print as 0 and the run
# names them in its "layers not measured" note.
NOT_MEASURED = {
    "gw-session": {"sea.cold_drain_ms", "sea.transport_key_exchanges",
                   "sea.shard_busy_ms", "sea.merge_ms",
                   "sea.parallel_efficiency", "sea.steals",
                   "machine.shard_build_ms", "machine.rss_mb_per_shard"},
    "svc-quoted": {"net.connect_ms", "net.tcp_connect_ms",
                   "net.handshake_unexplained_ms", "net.drains_per_batch",
                   "net.frames_per_request", "net.bytes_per_request",
                   "net.codec_us_per_request", "net.drain_share",
                   "net.busy_per_request", "sea.audit_coalescing",
                   "sea.attest_ms", "sea.verify_ms"},
}
MUST_BE_ZERO = {"net.busy_per_request", "crypto.keys_generated"}
MAY_BE_ZERO = MUST_BE_ZERO | {"sea.steals", "obs.trace_overhead_pct"}
OUT_DIR = os.path.join(".bench_build", "selftest")
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=None):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    return done.returncode, lines


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def metrics_ok(res, wanted):
    got = res["metrics"]
    return all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
               and isinstance(got[m["name"]]["value"], (int, float))
               for m in wanted)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = [w["name"] for w in bench["workloads"]]

    for name in names:
        rc, lines = run(["--workload", name, "--seed", "7",
                         "--seconds", "1", "--trace", "0"])
        res = result(lines)
        check(rc == 0 and res is not None and
              set(res) == {"correct", "attempted", "failed", "metrics"},
              name + ": untraced run prints a result line")
        if res is None:
            continue
        check(metrics_ok(res, bench["end_to_end"]) and
              set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]},
              name + ": every end-to-end metric prints with its unit")
        check(res["correct"] and res["failed"] == 0 and
              res["attempted"] >= 1,
              name + ": outputs correct, 0 of %s ops failed" %
              res["attempted"])

    for name in names:
        trace_file = os.path.join(OUT_DIR, "trace-%s.json" % name)
        if os.path.exists(trace_file):
            os.remove(trace_file)
        rc, lines = run(["--workload", name, "--seed", "7",
                         "--seconds", "1", "--trace", "1",
                         "--trace-out", trace_file])
        res = result(lines)
        check(rc == 0 and res is not None and
              metrics_ok(res, bench["per_layer"]) and
              set(res["metrics"]) == {m["name"] for m in bench["per_layer"]},
              name + ": traced run prints every per-layer metric")
        check(any("coverage:" in line for line in lines),
              name + ": traced run prints its coverage")
        if res is None:
            continue
        check(res["correct"] and res["failed"] == 0,
              name + ": traced run correct, 0 of %s ops failed" %
              res["attempted"])
        note = [line for line in lines
                if line.startswith("layers not measured")]
        absent = set(note[0].split(":", 1)[1].split()) if note else None
        check(absent == NOT_MEASURED[name],
              name + ": layers not measured are the expected ones (%s)" %
              (sorted(absent) if absent is not None else "no note"))
        values = {k: v["value"] for k, v in res["metrics"].items()}
        wrong = [k for k, v in values.items()
                 if (k in MUST_BE_ZERO and v != 0) or
                 (k not in MAY_BE_ZERO and k not in NOT_MEASURED[name] and
                  v == 0)]
        check(not wrong, name + ": every measured layer reads non-zero, "
              "busy and keys generated read 0" +
              (" (wrong: %s)" % wrong if wrong else ""))
        try:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
            seen = {e["name"] for e in events}
            missing = [s for s in SPANS[name] if s not in seen]
        except (OSError, ValueError, KeyError) as e:
            missing = ["<unreadable: %s>" % e]
        check(not missing, name + ": span file parses, holds every layer "
              "span" + (" (missing %s)" % missing if missing else ""))

    rc, lines = run(["--workload", "gw-session", "--seed", "7",
                     "--seconds", "1", "--trace", "0",
                     "--inject-unknown-pal"])
    res = result(lines)
    check(rc == 0 and res is not None and res["failed"] > 0 and
          res["attempted"] > res["failed"] and res["correct"],
          "injected unknown PAL: counted as failed (%s of %s), not fatal" %
          (res and res["failed"], res and res["attempted"]))

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    rc, lines = run(["--workload", names[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0"], cwd=bare)
    check(rc != 0 and result(lines) is None,
          "without the sources: exit %d, no result printed" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
