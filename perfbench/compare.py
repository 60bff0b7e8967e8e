"""Compare two benchmark result records side by side.

    python3 perfbench/compare.py .bench_out/results/BASE.json .bench_out/results/NEW.json

Records whose environment stamps differ (kernel backend, Python, numpy or
scipy version, core count, BLAS threads) are flagged as not comparable.
"""

import json
import sys


def compare(base, new):
    """Lines of a side-by-side report; the first says whether the records
    are comparable."""
    differ = sorted(k for k in set(base["env"]) | set(new["env"])
                    if base["env"].get(k) != new["env"].get(k))
    lines = [
        "NOT COMPARABLE: environment differs in "
        + ", ".join(f"{k} ({base['env'].get(k)} vs {new['env'].get(k)})"
                    for k in differ)
        if differ else "comparable: same environment"
    ]
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        lines.append("NOT COMPARABLE: different workload or trace mode")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            lines.append(f"{name:<40} {b['value']:>14.6g} {'missing':>14}")
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        lines.append(f"{name:<40} {b['value']:>14.6g} {n['value']:>14.6g} "
                     f"{ratio:>8.3f}x {b['unit']}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
