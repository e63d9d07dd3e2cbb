"""The repo's benchmark: four closed-loop workloads, named end-to-end
metrics with tracing off, and a traced pass for the per-layer metrics.

    python3 perf/run.py                               # all four, both passes
    python3 perf/run.py --workload olap --seed 2      # one workload
    python3 perf/run.py --workload olap --trace 1     # its traced pass
    python3 perf/run.py --selfcheck                   # two sets, compared
    python3 perf/run.py --quick                       # 1/10 rounds, same sizes

One run — one workload, one pass — is one process; the other forms
start one child per run. The last line of standard output is one JSON
object. With ``--workload`` and ``--trace`` it has the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``). See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import subprocess
import sys

import harness
from harness import METRIC_HEADER, OUT, ROOT, Metric, Tracer, clock

#: workload -> (module, class); imported late, because the engine and
#: numpy may load only after the environment has been scrubbed.
CLASSES = {
    "ladder": ("ladder", "Ladder"),
    "olap": ("olap", "Olap"),
    "server_mixed": ("server_mixed", "ServerMixed"),
    "dml_commit": ("dml_commit", "DmlCommit"),
}
WORKLOADS = tuple(CLASSES)
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Shares of ``--seconds`` in a traced run: the same closed loop without
#: and with spans, then the per-layer measurements.
TRACE_LOOP_SHARE = 0.25


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_class(name: str):
    module, cls = CLASSES[name]
    return getattr(importlib.import_module(module), cls)


class Run:
    """One workload, one seed, one pass (traced or not)."""

    def __init__(self, name, seed, seconds, trace, quick, tracer, contract):
        self.name = name
        self.seed = seed
        self.trace = trace
        self.seconds = seconds / 10 if quick else seconds
        self.min_samples = (
            harness.QUICK_MIN_SAMPLES if quick
            else harness.TRACED_MIN_SAMPLES if trace
            else harness.MIN_SAMPLES)
        self.tracer = tracer
        self.contract = contract
        #: BENCHMARK.json name -> Metric, what the JSON line reports.
        self.metrics: dict[str, Metric] = {}
        #: Everything else the workload measured, by its own name.
        self.extras: dict[str, Metric] = {}
        self.alias: dict[str, str] = {}
        #: Per-layer metrics of layers this workload does not exercise.
        self.bypassed: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.verify_s = 0.0
        self.config: dict = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def execute(self) -> "Run":
        cls = workload_class(self.name)
        base = OUT / f"run-{os.getpid()}"
        workload = None
        try:
            setups = []
            for i in range(SETUP_REPEATS):
                if workload is not None:
                    workload.close()
                    workload = None
                    gc.collect()
                workdir = base / f"{self.name}-{i}"
                workdir.mkdir(parents=True, exist_ok=True)
                workload = cls(self.seed, workdir, self.min_samples)
                started = clock()
                workload.setup()
                setups.append(clock() - started)
            if self.trace:
                self._traced_pass(workload)
            else:
                self._end_to_end_pass(workload, setups)
            self.config = workload.config()
            self.attempted = workload.attempted + len(self.problems)
            self.failed = workload.failed + len(self.problems)
        finally:
            if workload is not None:
                workload.close()
            shutil.rmtree(base, ignore_errors=True)
        return self

    def _verify(self, workload) -> None:
        started = clock()
        self.problems = workload.verify()
        self.verify_s = clock() - started

    def _end_to_end_pass(self, workload, setups: list[float]) -> None:
        measured = workload.measure(self.seconds)
        # Before the output check: SQLite and the expected rows are the
        # harness's memory, not the engine's.
        rss = workload.peak_rss_mib()
        self._verify(workload)
        self.metrics["setup_s"] = Metric.of(setups, "s")
        self.metrics["peak_rss_mb"] = Metric(rss, "MiB", count=1)
        for i, alias in enumerate(workload.SLOTS, start=1):
            self.metrics[f"lat{i}_ms"] = measured.pop(alias)
            self.alias[f"lat{i}_ms"] = alias
        self.extras = measured

    def _traced_pass(self, workload) -> None:
        import stages

        loop_seconds = self.seconds * TRACE_LOOP_SHARE
        before = workload.counters()
        plain = workload.measure(loop_seconds)
        after = workload.counters()
        traced = workload.measure(loop_seconds, self.tracer)
        self._verify(workload)
        layers = workload.layers(
            self.seconds * (1 - 2 * TRACE_LOOP_SHARE), self.tracer, plain,
            before, after)
        layers.update(stages.cache_ratios(before, after))
        layers["trace.overhead_ratio"] = Metric.of(
            [traced[a].value / plain[a].value for a in workload.SLOTS],
            "ratio")
        declared = {m["name"]: m["unit"] for m in self.contract["per_layer"]}
        unknown = sorted(set(layers) - set(declared))
        if unknown:
            raise SystemExit(f"per-layer metrics not in BENCHMARK.json: {unknown}")
        for name, unit in declared.items():
            if name in layers:
                self.metrics[name] = layers[name]
            else:
                # A layer this workload bypasses reports 0.
                self.metrics[name] = Metric(0.0, unit)
                self.bypassed.append(name)
        self.extras = plain

    # -- reporting --------------------------------------------------------

    def check_units(self) -> None:
        section = "per_layer" if self.trace else "end_to_end"
        for spec in self.contract[section]:
            got = self.metrics[spec["name"]].unit
            if got != spec["unit"]:
                raise SystemExit(
                    f"{spec['name']}: unit {got!r}, BENCHMARK.json says "
                    f"{spec['unit']!r}")

    def report(self) -> str:
        kind = "traced pass" if self.trace else "end-to-end, tracing off"
        shown = {
            n: m for n, m in self.metrics.items() if n not in self.bypassed}
        lines = [
            f"== {self.name} seed={self.seed} ({kind}) ==",
            harness.format_table(
                harness.metric_rows(shown, self.alias), METRIC_HEADER),
        ]
        if self.bypassed:
            lines.append(
                "layers this workload bypasses (reported as 0): "
                + " ".join(self.bypassed))
        if self.extras:
            lines += ["-- also measured --", harness.format_table(
                harness.metric_rows(self.extras, {}), METRIC_HEADER)]
        if self.trace:
            lines.append(
                f"trace_overhead {self.name}: "
                f"{self.metrics['trace.overhead_ratio'].value:.4f} "
                "(traced / untraced, median over the six latencies)")
        lines.append(
            f"operations attempted={self.attempted} failed={self.failed} "
            f"output_checks={'pass' if not self.problems else self.problems} "
            f"verify_s={self.verify_s:.3f}")
        lines.append(f"engine_config {json.dumps(self.config, sort_keys=True)}")
        return "\n".join(lines)

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in self.metrics.items()
            },
        }


def single_run(args, contract) -> int:
    """One workload, one pass, in this process (what the driver calls)."""
    scrubbed = harness.scrub_environment()
    sys.path.insert(0, str(ROOT / "src"))
    print(f"facts {json.dumps(harness.host_facts(args.seed, scrubbed))}")
    tracer = Tracer() if args.trace else None
    run = Run(
        args.workload, args.seed, args.seconds, args.trace, args.quick,
        tracer, contract,
    ).execute()
    run.check_units()
    print(run.report())
    if tracer is not None:
        path = OUT / f"trace-{run.name}.json"
        tracer.write_chrome_trace(path)
        print("-- harness spans: self time per layer --")
        print(tracer.self_time_table())
        print(f"trace written to {path}")
    print(json.dumps(run.result()))
    return 0


def child_run(name: str, trace: int, args) -> dict:
    """One run in a fresh process (so a workload's memory and peak RSS
    are its own); relays its report and returns its JSON result."""
    command = [
        sys.executable, __file__, "--workload", name, "--trace", str(trace),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    *report, last = done.stdout.strip().splitlines() or [""]
    print("\n".join(report), flush=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}")
    return json.loads(last)


def selfcheck(args, contract) -> int:
    """Two full sets of the same code back to back; every end-to-end
    metric of the second must be within its bound of the first."""
    sets = [
        {name: child_run(name, 0, args) for name in WORKLOADS}
        for _ in range(2)
    ]
    rows = []
    for name in WORKLOADS:
        for spec in contract["end_to_end"]:
            a, b = (s[name]["metrics"][spec["name"]]["value"] for s in sets)
            drift = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            rows.append((
                name, spec["name"], f"{a:.6g}", f"{b:.6g}", f"{drift:+.3f}",
                spec["bound"],
                "ok" if abs(drift) <= spec["bound"] else "DISAGREE",
            ))
    print("== selfcheck ==")
    print(harness.format_table(rows, (
        "workload", "metric", "first", "second", "drift", "bound",
        "verdict")))
    agree = all(row[-1] == "ok" for row in rows)
    correct = all(r["correct"] for s in sets for r in s.values())
    print(json.dumps({"selfcheck_agree": agree, "correct": correct}))
    return 0 if agree and correct else 1


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="length of one measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true",
                        help="1/10 of the rounds, same sizes")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.workload and args.trace is not None:
        return single_run(args, contract)
    names = (args.workload,) if args.workload else WORKLOADS
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = {
        f"{name}.trace{trace}": child_run(name, trace, args)
        for trace in passes for name in names
    }
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
