"""ppinv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (survey, roundtrip, symbolic, bigfield), or every one of
them in its own process with ``--workload all``.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  It prints each metric by name and unit, then one JSON line
holding ``correct``, ``attempted``, ``failed`` and ``metrics``, and exits
nonzero if any operation failed its check.  The library is imported from
``src/`` of the checkout that holds this file.
"""

import os
import time

_START = time.perf_counter()

# One thread per process: the workloads are single-threaded by design.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("survey", "roundtrip", "symbolic", "bigfield")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ppinv benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's own."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{name}.{k}": v for name, r in results.items() if r
                    for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ppinv" / "__init__.py").is_file():
        print(f"error: no ppinv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import ppinv
    if Path(ppinv.__file__).resolve().parent != (SRC / "ppinv").resolve():
        print(f"error: imported ppinv from {ppinv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload_cls = WORKLOADS[args.workload]
    harness.OUT.mkdir(exist_ok=True)
    if args.trace:
        spans = harness.OUT / f"{args.workload}-spans.npz"
        result, record = harness.run_traced(workload_cls, args.seed, Tracer(), spans)
    else:
        result, record = harness.run_untraced(workload_cls, args.seed, args.seconds, import_s)
    record = {"workload": args.workload, "trace": args.trace, **record,
              "provenance": harness.provenance(args.seed)}
    (harness.OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1) + "\n"
    )

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {record['error_rate']:.6g} ratio")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
