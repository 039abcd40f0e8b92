"""The judged-run benchmark: ``python perf/run.py``.

Runs every workload of :mod:`workloads` as a judged run — import →
build → install plan → drive to the horizon → close → check — and
prints every metric ``BENCHMARK.json`` names, with its unit.  Exits
non-zero if any run fails a check, misses its pins, or disagrees with
its sibling repeats.

Noise control: one untimed ``--scale 0.05`` pass per workload, then
each repeat in a fresh child process, one at a time, round-robin across
the workloads so a noisy stretch costs each workload at most one
repeat.  The headline of every time is the median over the repeats.

    python perf/run.py                      # six workloads x 3 repeats
    python perf/run.py --trace              # ... plus the per-layer metrics
    python perf/run.py --out A.json         # keep the results
    python perf/run.py --agree A.json B.json
    python perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the one the driver calls; its last line of output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)

from fold import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD = os.path.join(PERF_DIR, "judged.py")
PINS_PATH = os.path.join(PERF_DIR, "pins.json")
CHILD_TIMEOUT_S = 170.0
WARMUP_SCALE = 0.05
#: A repeat whose wall exceeds its CPU time by more than this share was
#: waiting for the processor: reported as disturbed, never dropped.
DISTURBED_SHARE = 0.05
#: Not in ``BENCHMARK.json`` (its metrics may never read 0); any
#: increase is a failure, which the JSON result carries as ``failed``.
OPS_FAILED_SHARE = {
    "name": "ops_failed_share", "unit": "share", "better": "lower", "bound": 0.0,
}


def load_benchmark() -> dict[str, Any]:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------


def run_child(name: str, seed: int, scale: float, profile: bool) -> dict[str, Any]:
    """One judged run in a fresh interpreter; its JSON result."""
    done = subprocess.run(
        [sys.executable, CHILD, name, str(seed), repr(scale), "1" if profile else "0"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:  # its traceback is already on stderr
        raise SystemExit(f"perf: the judged run of {name} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(result: dict[str, Any]) -> dict[str, float]:
    """The end-to-end metrics of one repeat."""
    times, counts = result["times"], result["counts"]
    completed = (
        counts["protocols.reads_done"]
        + counts["protocols.writes_done"]
        + counts["protocols.joins_done"]
    )
    return {
        "wall_s": times["wall_s"],
        "setup_s": times["setup_s"],
        "drive_s": times["drive_s"],
        # max(1, ...): a --scale run may end before anything is delivered.
        "ns_per_delivered": 1e9 * times["drive_s"] / max(1, counts["net.delivered"]),
        "ns_per_event": 1e9 * times["drive_s"] / max(1, counts["sim.events_fired"]),
        "ops_per_s": completed / times["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_failed_share": result["failed"] / max(1, result["attempted"]),
    }


def differences(result: dict[str, Any], expected: dict[str, Any]) -> list[str]:
    """Names of the exact-repeat fields on which ``result`` misses
    ``expected`` (a pin, or a sibling repeat)."""
    missed = [] if result["digest"] == expected["digest"] else ["digest"]
    missed += [
        name
        for name, value in expected["counts"].items()
        if result["counts"].get(name) != value
    ]
    return missed


def disturbed(result: dict[str, Any]) -> bool:
    return result["raw_times"]["wall_s"] > (1.0 + DISTURBED_SHARE) * result["cpu_s"]


# ----------------------------------------------------------------------
# A set of runs
# ----------------------------------------------------------------------


def measure(
    names: list[str],
    seed: int,
    scale: float,
    repeats: int,
    seconds: float | None,
    trace: bool,
    log: Any,
) -> dict[str, Any]:
    """Warm up, then time ``repeats`` rounds over ``names`` (or, with
    ``seconds``, rounds until that much wall time per workload is
    measured — never fewer than ``repeats``), then one traced run each."""
    pins: dict[str, Any] = {}
    if seed == 0 and scale == 1.0:
        with open(PINS_PATH, encoding="utf-8") as handle:
            pins = json.load(handle)
    for name in names:
        log(f"warm-up {name} at scale {WARMUP_SCALE * scale:g}")
        run_child(name, seed, WARMUP_SCALE * scale, False)
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    problems: dict[str, list[str]] = {name: [] for name in names}
    measured = 0.0
    rounds = 0
    while rounds < repeats or (
        seconds is not None
        and measured + measured / rounds <= seconds * len(names)
    ):
        rounds += 1
        for name in names:
            result = run_child(name, seed, scale, False)
            measured += result["raw_times"]["wall_s"]
            expected = pins.get(name) or (runs[name][0] if runs[name] else result)
            missed = differences(result, expected)
            if result["failed"]:
                missed.append(f"{result['failed']} failed operations")
            if missed:
                result["failed"] = result["attempted"]
                problems[name].append(f"repeat {rounds}: " + ", ".join(missed))
            runs[name].append(result)
            log(
                f"repeat {rounds} {name}: wall {result['times']['wall_s']:.3f} s "
                f"(raw {result['raw_times']['wall_s']:.3f} s)"
                + (" (disturbed)" if disturbed(result) else "")
                + (f" FAILED: {', '.join(missed)}" if missed else "")
            )
    out: dict[str, Any] = {}
    for name in names:
        entry = summarise(runs[name], problems[name], seed, scale)
        if trace:
            log(f"traced run {name}")
            traced = run_child(name, seed, scale, True)
            missed = differences(traced, runs[name][0])
            if missed:
                entry["problems"].append("traced run: " + ", ".join(missed))
                entry["failed"] = entry["attempted"]
            entry["traced"] = traced_layers(
                traced, entry["metrics"]["wall_s"]["median"]
            )
            entry["trace"] = {
                "spans": traced["spans"],
                "edges": traced["fold"]["edges"],
                "self_s": traced["fold"]["self_s"],
            }
        out[name] = entry
    return out


def summarise(
    runs: list[dict[str, Any]], problems: list[str], seed: int, scale: float
) -> dict[str, Any]:
    """One workload's repeats as medians, with min, max and spread."""
    per_repeat = [end_to_end(r) for r in runs]
    metrics = {}
    for metric in per_repeat[0]:
        values = [m[metric] for m in per_repeat]
        median = statistics.median(values)
        metrics[metric] = {
            "median": median,
            "min": min(values),
            "max": max(values),
            "spread": (max(values) - min(values)) / median if median else 0.0,
        }
    first = runs[0]
    return {
        "seed": seed,
        "scale": scale,
        "metrics": metrics,
        "counts": first["counts"],
        "spans": {
            span: statistics.median(r["times"][span] for r in runs)
            for span in first["times"]
            if "." in span
        },
        "digest": first["digest"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": problems,
        "repeats": [
            {
                "times": r["times"],
                "raw_times": r["raw_times"],
                "cpu_s": r["cpu_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "disturbed": disturbed(r),
            }
            for r in runs
        ],
    }


def per_layer(entry: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric of one workload: counts, spans, fold."""
    return {**entry["counts"], **entry["spans"], **entry.get("traced", {})}


def traced_layers(traced: dict[str, Any], plain_wall_s: float) -> dict[str, float]:
    """The per-layer metrics only the traced run can give."""
    folded = traced["fold"]
    total = folded["total_s"]
    layers: dict[str, float] = {}
    for layer in LAYERS:
        layers[f"{layer}.self_s"] = folded["self_s"][layer]
        layers[f"{layer}.self_share"] = folded["self_s"][layer] / total
        layers[f"{layer}.calls_in"] = folded["calls_in"][layer]
    layers["trace.overhead_ratio"] = traced["times"]["wall_s"] / plain_wall_s
    layers["trace.other_s"] = folded["self_s"]["other"]
    layers["trace.unattributed_s"] = folded["self_s"]["unattributed"]
    return layers


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def report(results: dict[str, Any], benchmark: dict[str, Any], trace: bool) -> None:
    end_metrics = [*benchmark["end_to_end"], OPS_FAILED_SHARE]
    for name, entry in results.items():
        count = len(entry["repeats"])
        marked = sum(r["disturbed"] for r in entry["repeats"])
        print(
            f"\n== {name}: {count} repeats, seed {entry['seed']}, "
            f"scale {entry['scale']:g}, {marked} disturbed =="
        )
        print(f"{'metric':<20}{'unit':<7}{'median':>14}{'min':>14}{'max':>14}"
              f"{'spread':>9}{'bound':>8}")
        for spec in end_metrics:
            m = entry["metrics"][spec["name"]]
            print(
                f"{spec['name']:<20}{spec['unit']:<7}{m['median']:>14.6g}"
                f"{m['min']:>14.6g}{m['max']:>14.6g}{m['spread']:>9.1%}"
                f"{spec['bound']:>8.0%}"
            )
        if trace:
            print(f"{'per-layer metric':<40}{'unit':<8}{'value':>16}")
            layers = per_layer(entry)
            for spec in benchmark["per_layer"]:
                value = layers[spec["name"]]
                print(f"{spec['name']:<40}{spec['unit']:<8}{value:>16.6g}")
        for problem in entry["problems"]:
            print(f"FAILED {name}: {problem}")


def contract_line(entry: dict[str, Any], benchmark: dict[str, Any], trace: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    if trace:
        layers = per_layer(entry)
        metrics = {
            spec["name"]: {"value": layers[spec["name"]], "unit": spec["unit"]}
            for spec in benchmark["per_layer"]
        }
    else:
        metrics = {
            spec["name"]: {
                "value": entry["metrics"][spec["name"]]["median"],
                "unit": spec["unit"],
            }
            for spec in benchmark["end_to_end"]
        }
    return json.dumps(
        {
            "correct": not entry["problems"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def agree(path_a: str, path_b: str, benchmark: dict[str, Any]) -> int:
    """Compare two result files metric by metric against the bounds.

    ``A`` is the baseline.  A row is ``worse`` when ``B``'s median is
    worse than ``A``'s by more than the metric's bound, ``better`` when
    it is better by more than the bound (noise, on one commit), ``ok``
    otherwise.  Counts and digests must be identical.  Returns 1 if
    any row is worse or any count differs.
    """
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    bad = 0
    print(f"{'workload':<26}{'metric':<20}{'A':>14}{'B':>14}{'worse by':>10}"
          f"{'bound':>8}  verdict")
    for name in a:
        if name not in b:
            print(f"{name:<26}missing from {path_b}")
            bad += 1
            continue
        for spec in [*benchmark["end_to_end"], OPS_FAILED_SHARE]:
            metric = spec["name"]
            va = a[name]["metrics"][metric]["median"]
            vb = b[name]["metrics"][metric]["median"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse_by = sign * (vb - va) / va if va else sign * (vb - va)
            verdict = "ok"
            if worse_by > spec["bound"]:
                verdict = "WORSE"
                bad += 1
            elif worse_by < -spec["bound"]:
                verdict = "better"
            print(
                f"{name:<26}{metric:<20}{va:>14.6g}{vb:>14.6g}{worse_by:>+10.1%}"
                f"{spec['bound']:>8.0%}  {verdict}"
            )
        missed = differences(b[name], a[name])
        print(
            f"{name:<26}{'counts+digest':<20}"
            + (f"DIFFER: {', '.join(missed)}" if missed else "identical")
        )
        bad += bool(missed)
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="horizon multiplier (pins apply at 1.0 only)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure about this long per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add one cProfile run per workload")
    parser.add_argument("--out", help="write the results here as JSON")
    parser.add_argument("--trace-out", help="write spans, fold and call edges here")
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"),
                        help="compare two --out files against the bounds")
    parser.add_argument("--write-pins", action="store_true",
                        help="record seed-0 digests and counts in pins.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    benchmark = load_benchmark()
    if args.agree:
        return agree(*args.agree, benchmark)
    if args.write_pins:
        pins = {}
        for name in names:
            result = run_child(name, 0, 1.0, False)
            pins[name] = {"digest": result["digest"], "counts": result["counts"]}
        with open(PINS_PATH, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0

    chosen = [args.workload] if args.workload else names
    repeats = args.repeats
    seconds = args.seconds
    if seconds is not None and args.trace:
        # The traced run costs about three plain ones: one plain repeat
        # (spans, counts, the overhead baseline) and the budget is spent.
        repeats, seconds = 1, None
    started = time.perf_counter()
    results = measure(
        chosen, args.seed, args.scale, repeats, seconds, bool(args.trace),
        lambda message: print(f"[{time.perf_counter() - started:7.1f}s] {message}",
                              flush=True),
    )
    report(results, benchmark, bool(args.trace))
    traces = {name: entry.pop("trace", None) for name, entry in results.items()}
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(traces, handle)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "claim": None, "workloads": results}, handle,
                      indent=1)
    failed = any(entry["problems"] for entry in results.values())
    if args.workload:
        print(contract_line(results[args.workload], benchmark, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
