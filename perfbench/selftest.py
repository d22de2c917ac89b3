#!/usr/bin/env python3
"""Self-test of the benchmark's input generation and output checks.

    python3 perfbench/selftest.py

Run from the root of a checkout. It shows that:

* the same seed gives byte-identical inputs, and another seed different ones
  (``inverse-large`` uses fixed analytic data, so its inputs never change);
* an op run twice gives byte-identical outputs;
* the checker rejects an output with one lambda moved by 1e-6 (oracle and
  index-certified outputs) and a sigma CSV with one row changed, and the
  rerun comparison rejects any changed byte;
* the seeded inputs of another seed pass every check.

Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

SEEDS = (11, 12)


def main() -> int:
    sl = run.import_slspec()
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0

    def report(name, ok):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {name}")

    def execute(op):
        run.write_inputs([op], workdir)
        return run.execute(sl, op, workdir)

    def rejects(op, outputs):
        try:
            checks.check(op, outputs, sl)
        except checks.CheckError:
            return True
        return False

    try:
        for name in workloads.WORKLOADS:
            a, b, c = (workloads.build(name, s) for s in (SEEDS[0], SEEDS[0], SEEDS[1]))
            same = [x.input_text for x in a] == [x.input_text for x in b]
            differs = [x.input_text for x in a] != [x.input_text for x in c]
            report(f"{name}: same seed, same inputs", same)
            if name != "inverse-large":
                report(f"{name}: other seed, other inputs", differs)

        probe_direct = workloads.probe_ops()[0]
        first, again = execute(probe_direct), execute(probe_direct)
        report("rerun gives byte-identical output", first.outputs == again.outputs)
        report("oracle output passes", not rejects(probe_direct, first.outputs))
        obj = json.loads(first.outputs[0])
        obj["lambda"][5] += 1e-6
        report("oracle output with one lambda moved by 1e-6 is rejected",
               rejects(probe_direct, [json.dumps(obj, indent=1) + "\n"]))

        verifier = run.Verifier(sl)
        verifier.verify(first)
        changed = run.Outcome(probe_direct, 0.0, 0, [first.outputs[0].replace("1", "2", 1)], "")
        verifier.verify(changed)
        report("rerun with a changed byte is rejected", changed.wrong and not changed.ok)

        inverse = workloads.build("inverse-large", SEEDS[0])[0]
        out = execute(inverse)
        report("inverse output passes", out.code == 0 and not rejects(inverse, out.outputs))
        rows = out.outputs[0].split("\n")
        mid = inverse.grid // 2 + 1
        x, value = rows[mid].split(",")
        rows[mid] = f"{x},{float(value) + 0.1!r}"
        report("sigma CSV with one row changed by 0.1 is rejected",
               rejects(inverse, ["\n".join(rows), out.outputs[1]]))

        for name in ("direct-fine", "roundtrip-small"):
            for op in workloads.build(name, SEEDS[1]):
                if op.role != "singular":
                    continue
                out = execute(op)
                ok = out.code == 0 and not rejects(op, out.outputs)
                report(f"{name} {op.name} (seed {SEEDS[1]}) passes", ok)
                if op.command == "direct" and ok:
                    obj = json.loads(out.outputs[0])
                    obj["lambda"][op.certified[2] - 1] += 1e-6
                    report(f"{op.name}: certified lambda moved by 1e-6 is rejected",
                           rejects(op, [json.dumps(obj, indent=1) + "\n"]))
    finally:
        shutil.rmtree(workdir)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
