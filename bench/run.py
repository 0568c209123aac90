"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload cold-solve --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the per-layer metrics and the tracing
overhead.  See ``bench/README.md``.
"""

import os

# fixed thread counts, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "fairalloc" / "__init__.py").is_file():
        print(f"error: no fairalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from bench.harness import environment, run_benchmark
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
