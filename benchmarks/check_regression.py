"""Bench-regression gate: fresh artefacts vs committed baselines.

CI runs the fastpath and churn benches in smoke mode, then this script
compares the fresh ``results/*.json`` against the committed
``baselines/*.json`` and fails the workflow on a regression.

Comparison rules:

* **pps metrics** are wall-clock and machine-dependent, so raw ratios
  against a baseline recorded on a different machine are meaningless.
  Every pps metric's current/baseline ratio is therefore normalised by
  the *median* ratio across all pps metrics of that artefact — the
  median cancels the machine-speed factor, a genuine regression shows
  up as one row falling away from the pack.  A normalised ratio below
  ``1 - threshold`` (default: 25% regression) fails the gate.
* **hit_rate and ``*_share`` metrics** are machine-independent
  fractions and are compared absolutely: current below baseline by more
  than 0.10 fails.
* **speedup metrics** (ratios of two pps numbers measured on the same
  machine) are compared directly against ``1 - threshold``.
* **convergence_s / frames_lost metrics** (bench_resilience) are pure
  simulated time, deterministic on every machine, and lower is better:
  convergence regressing past ``1 + threshold`` of the baseline (plus
  one sweep window of slack) fails, and frames_lost may not exceed the
  baseline by more than ``max(2, threshold * baseline)`` probes.
* **sync-protocol counters** (bench_fabric ``--shards`` rows:
  ``sync_rounds``, ``rounds_skipped``, ``records_exported``) are pure
  functions of the workload — the sharded engine is bit-deterministic,
  so any drift at all means the sync protocol changed behaviour.  They
  are compared for exact equality, with the row's packet count folded
  into the label so smoke and full runs of the same fabric never cross-
  compare.  ``bytes_exchanged`` stays informational: it tracks pickle
  framing, which may legitimately change without a protocol change.

Rows present only on one side are reported and skipped, so full-mode
local runs can be checked against smoke-mode baselines on their common
rows.  Within a row both artefacts have, a gated metric the baseline
holds a number for must still have one: ``None`` (no data) or a
missing key fails the gate instead of silently dropping out of it.  A
*results file* with no committed baseline at all, however, fails the
gate loudly: a freshly added bench artefact must land with
its baseline (``--update`` creates it), otherwise the gate would
silently never cover it.

Refresh the baselines after an intentional perf change with::

    PYTHONPATH=src python benchmarks/bench_fastpath.py --fast
    PYTHONPATH=src python benchmarks/bench_churn.py --fast
    PYTHONPATH=src python benchmarks/bench_fabric.py --fast --shards 2
    PYTHONPATH=src python benchmarks/bench_resilience.py --fast
    PYTHONPATH=src python benchmarks/bench_storm.py --fast
    PYTHONPATH=src python benchmarks/bench_usecase_dmz.py --fast
    PYTHONPATH=src python benchmarks/bench_usecase_lb.py --fast
    PYTHONPATH=src python benchmarks/bench_usecase_pc.py --fast
    python benchmarks/check_regression.py --update

and commit the updated ``benchmarks/baselines/*.json``.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import sys

BENCH_DIR = pathlib.Path(__file__).parent
BASELINES_DIR = BENCH_DIR / "baselines"
RESULTS_DIR = BENCH_DIR / "results"

#: Keys that identify a row (workload shape), not measurements.
IDENTITY_KEYS = (
    "bench", "config", "kind", "policy", "flows", "masked_entries", "burst",
    "edges", "shards", "topology", "event", "protection",
)
#: Sync-protocol counters from sharded-fabric rows: bit-deterministic
#: for a given workload, gated by exact equality.
DETERMINISTIC_KEYS = ("sync_rounds", "rounds_skipped", "records_exported")
#: Absolute tolerance for hit-rate metrics (fractions in [0, 1]).
HIT_RATE_TOLERANCE = 0.10
#: Slack added to convergence comparisons: one reachability-sweep
#: window, so a row that converges one sweep later than a tiny baseline
#: does not trip the relative threshold on quantisation alone.
CONVERGENCE_SLACK_S = 0.25
#: Minimum absolute headroom for frames_lost (counts, often small).
FRAMES_LOST_MIN_SLACK = 2


def is_gated(key: str) -> bool:
    """Measurement keys the gate compares (besides DETERMINISTIC_KEYS)."""
    return (
        key in ("pps", "hit_rate", "convergence_s", "frames_lost")
        or key.startswith("speedup")
        or key.endswith("_share")
    )


def row_of(label: str) -> str:
    """The row part of a metric label (everything before the key)."""
    return label.rsplit(":", 1)[0]


def extract_metrics(node, label="", out=None):
    """Flatten an artefact into {stable label: numeric metric or None}.

    Labels are built from the identity keys found along the path, so
    the same workload row gets the same label in baseline and current
    artefacts regardless of dict ordering.  Only gated leaves (see
    :func:`is_gated`) are metrics; everything else (packet counts, raw
    counters, timings) is workload description or redundant.  A gated
    leaf without data is kept as ``None`` so :func:`compare` can fail it.
    """
    if out is None:
        out = {}
    if isinstance(node, dict):
        identity = ",".join(
            f"{key}={node[key]}"
            for key in IDENTITY_KEYS
            if key in node and isinstance(node[key], (str, int))
        )
        prefix = f"{label}/{identity}" if identity else label
        for key, value in sorted(node.items()):
            if isinstance(value, (dict, list)):
                extract_metrics(value, f"{prefix}/{key}", out)
            elif (value is None or isinstance(value, (int, float))) and is_gated(key):
                out[f"{prefix}:{key}"] = None if value is None else float(value)
            elif isinstance(value, (int, float)) and key in DETERMINISTIC_KEYS:
                # Deterministic counters scale with the injected load,
                # so the packet count joins the identity: a smoke row
                # must never be equality-compared against a full row of
                # the same fabric shape.
                pkts = node.get("packets")
                qualifier = f"/pkts={pkts}" if isinstance(pkts, int) else ""
                out[f"{prefix}{qualifier}:{key}"] = float(value)
    elif isinstance(node, list):
        for item in node:
            extract_metrics(item, label, out)
    return out


def compare(name, baseline, current, threshold):
    """Compare one artefact pair; returns (failures, report lines)."""
    base = {label: value for label, value in extract_metrics(baseline).items()
            if value is not None}
    cur = extract_metrics(current)
    current_rows = {row_of(label) for label in cur}
    failures, lines = [], []
    for label in sorted(base):
        if cur.get(label) is not None:
            continue
        if row_of(label) in current_rows:
            why = "has no data" if label in cur else "missing"
            failures.append(f"{name}: {label} {why} (baseline {base[label]:g})")
            lines.append(f"   {'NO DATA':>10} {label}")
        else:
            lines.append(f"   (baseline-only, skipped: {label})")
    cur = {label: value for label, value in cur.items() if value is not None}
    shared = sorted(set(base) & set(cur))
    lines.insert(0, f"== {name}: {len(shared)} shared metrics ==")
    for fresh in sorted(set(cur) - set(base)):
        lines.append(f"   (new, unbaselined: {fresh})")
    if not shared:
        failures.append(f"{name}: no shared metrics between baseline and current")
        return failures, lines

    pps_labels = [label for label in shared if label.endswith(":pps")]
    ratios = {label: cur[label] / base[label] for label in pps_labels if base[label]}
    machine_factor = statistics.median(ratios.values()) if ratios else 1.0
    lines.append(f"   machine-speed factor (median pps ratio): {machine_factor:.2f}")

    for label in shared:
        if label.endswith(":pps"):
            if not base[label]:
                continue
            normalised = ratios[label] / machine_factor
            verdict = "ok"
            if normalised < 1.0 - threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} regressed {1 - normalised:.0%} "
                    f"(baseline {base[label]:.0f} pps, current {cur[label]:.0f} pps, "
                    f"normalised x{normalised:.2f})"
                )
            lines.append(
                f"   {verdict:>10} {label} x{normalised:.2f} (normalised)"
            )
        elif label.endswith(":convergence_s"):
            limit = base[label] * (1.0 + threshold) + CONVERGENCE_SLACK_S
            verdict = "ok"
            if cur[label] > limit:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} slowed "
                    f"{base[label]:.3f}s -> {cur[label]:.3f}s "
                    f"(limit {limit:.3f}s)"
                )
            lines.append(
                f"   {verdict:>10} {label} {base[label]:.3f}s -> {cur[label]:.3f}s"
            )
        elif label.endswith(":frames_lost"):
            limit = base[label] + max(
                FRAMES_LOST_MIN_SLACK, threshold * base[label]
            )
            verdict = "ok"
            if cur[label] > limit:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} rose {base[label]:.0f} -> {cur[label]:.0f} "
                    f"(limit {limit:.0f})"
                )
            lines.append(
                f"   {verdict:>10} {label} {base[label]:.0f} -> {cur[label]:.0f}"
            )
        elif label.rsplit(":", 1)[-1] in DETERMINISTIC_KEYS:
            verdict = "ok"
            if cur[label] != base[label]:
                verdict = "MISMATCH"
                failures.append(
                    f"{name}: {label} changed "
                    f"{base[label]:.0f} -> {cur[label]:.0f} "
                    "(deterministic sync counter; exact match required)"
                )
            lines.append(
                f"   {verdict:>10} {label} "
                f"{base[label]:.0f} -> {cur[label]:.0f}"
            )
        elif label.endswith(":hit_rate") or label.endswith("_share"):
            delta = cur[label] - base[label]
            verdict = "ok"
            if delta < -HIT_RATE_TOLERANCE:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} fell {base[label]:.1%} -> {cur[label]:.1%}"
                )
            lines.append(
                f"   {verdict:>10} {label} {base[label]:.1%} -> {cur[label]:.1%}"
            )
        else:  # speedup_*: same-machine ratio, compared directly
            if not base[label]:
                continue
            ratio = cur[label] / base[label]
            verdict = "ok"
            if ratio < 1.0 - threshold:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {label} regressed x{ratio:.2f} "
                    f"({base[label]:.2f} -> {cur[label]:.2f})"
                )
            lines.append(f"   {verdict:>10} {label} x{ratio:.2f}")
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", type=pathlib.Path, default=BASELINES_DIR)
    parser.add_argument("--results", type=pathlib.Path, default=RESULTS_DIR)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative pps regression that fails the gate (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy current results over the baselines instead of comparing",
    )
    args = parser.parse_args(argv)

    if args.update:
        result_files = sorted(
            path
            for path in args.results.glob("*.json")
            if path.name != "regression.json"
        )
        if not result_files:
            print(f"no current results under {args.results}", file=sys.stderr)
            return 1
        args.baselines.mkdir(exist_ok=True)
        for result_path in result_files:
            baseline_path = args.baselines / result_path.name
            verb = "refreshed" if baseline_path.exists() else "created"
            shutil.copyfile(result_path, baseline_path)
            print(f"baseline {verb}: {baseline_path}")
        return 0

    baseline_files = sorted(args.baselines.glob("*.json"))
    if not baseline_files:
        print(f"no baselines under {args.baselines}", file=sys.stderr)
        return 1

    all_failures = []
    report = []
    # A fresh result with no committed baseline is a gate hole, not a
    # skip: fail loudly so new benches land with their baselines.
    baseline_names = {path.name for path in baseline_files}
    for result_path in sorted(args.results.glob("*.json")):
        if result_path.name == "regression.json":
            continue
        if result_path.name not in baseline_names:
            all_failures.append(
                f"{result_path.name}: results present but no baseline at "
                f"{args.baselines / result_path.name} — run "
                "check_regression.py --update and commit it"
            )
    for baseline_path in baseline_files:
        result_path = args.results / baseline_path.name
        if not result_path.exists():
            all_failures.append(
                f"{baseline_path.name}: no current result at {result_path} "
                "(did the bench run?)"
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(result_path.read_text())
        failures, lines = compare(
            baseline_path.stem, baseline, current, args.threshold
        )
        all_failures.extend(failures)
        report.extend(lines)

    report.append("")
    if all_failures:
        report.append(f"FAIL: {len(all_failures)} regression(s)")
        report.extend(f"  - {failure}" for failure in all_failures)
    else:
        report.append("PASS: no bench regressions against committed baselines")
    text = "\n".join(report)
    print(text)
    args.results.mkdir(exist_ok=True)
    (args.results / "regression.txt").write_text(text + "\n")
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main())
