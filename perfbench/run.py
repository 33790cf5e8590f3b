"""Run one benchmark workload against the mesoscale package in ``src/``.

    python3 perfbench/run.py --workload analyze-dolphins --seed 0 --seconds 18 --trace 0

Run it from the repository root; it needs ``src/mesoscale`` there and exits
with status 2 without it. One client runs ops back to back (a closed loop)
for ``--seconds`` in this one process, with BLAS limited to one thread.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, or the per-layer metrics and the
tracing overhead with ``--trace 1``. Everything the run writes goes to
``perfbench/out/``. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

# one process, no extra threads: set before numpy is first imported (in main)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
NAMES = ("analyze-dolphins", "simulate-p12", "coassign-large", "oracle-n14")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the checkout's package and wait for it."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)


def time_setup(script: str) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the input.

    This process has already imported the package, so bytecode caches, which
    users pay for once, are written before the first timed interpreter starts.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        run_child(["-c", script])
        times.append(perf_counter() - t0)
    return times


def import_times() -> tuple[float, float]:
    """(mesoscale.cli import, scipy part of it) in seconds, from ``-X importtime``.

    Each is the cumulative time of the outermost matching imports, so scipy
    submodules imported by other scipy modules are not counted twice.
    """
    stderr = run_child(["-X", "importtime", "-c", "import mesoscale.cli"]).stderr
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue            # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))

    def outermost(prefix):
        # importtime prints a module after its children; walk parents first
        total, stack = 0, []
        for depth, cumulative, name in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = any(hit for _, hit in stack)
            hit = name == prefix or name.startswith(prefix + ".")
            if hit and not inside:
                total += cumulative
            stack.append((depth, hit or inside))
        return total / 1e6

    return outermost("mesoscale"), outermost("scipy")


def git_commit(git: Path) -> str | None:
    """HEAD's commit read from the checkout's own .git; None outside a git checkout."""
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def describe_machine(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = git_commit(ROOT / ".git")
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "workload_seed": seed,
    }


def run_ops(workload, seconds: float, first: int, recorder=None) -> list:
    """Closed loop: start op k+1 when op k and its checks are done."""
    from workloads import OpResult

    results = []
    deadline = perf_counter() + seconds
    k = first
    while not results or perf_counter() < deadline:
        t0 = perf_counter()
        try:
            output = (workload.call(k) if recorder is None
                      else recorder.op(k, workload.call, k))
        except Exception:   # an op that raises is a failed op; keep measuring
            result = OpResult(perf_counter() - t0, failures=[traceback.format_exc()],
                              crashed=True)
        else:
            result = OpResult(perf_counter() - t0)
            workload.check(k, output, result)
        results.append(result)
        k += 1
    return results


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, defined for a single value too."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(workload, ops: list, setup: list[float], error_rate: float) -> dict:
    timed = [r for r in ops if not r.crashed]
    times = [r.seconds for r in timed]
    if not times:
        raise RuntimeError("every op raised; nothing to measure")
    # ESS per second of the ops' own chains, else of the chains the checks ran
    chains = ([(r.seconds, r.ess) for r in timed if r.ess > 0]
              or [(c.seconds, c.ess) for c in workload.chains])
    ess_per_s = sum(e for _, e in chains) / sum(s for s, _ in chains) if chains else 0.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (quantile(times, 0.9), "s"),
        "fits_per_s": (sum(r.fits for r in timed) / sum(times), "1/s"),
        "ess_per_s": (ess_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (error_rate, "ratio"),
    }


def per_layer(recorder, untraced: list, traced: list) -> dict:
    own = recorder.self_times()
    calls = recorder.call_counts()
    counts = recorder.counts
    n_ops = max(len(traced), 1)

    def per_op(span):
        return own.get(span, 0.0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    import_s, scipy_s = import_times()
    p50 = statistics.median
    return {
        "cli.import_s": (import_s, "s"),
        "cli.import.scipy_s": (scipy_s, "s"),
        "graph.parse_s": (per_op("graph.parse"), "s"),
        "graph.edges_per_s": (ratio(counts["graph.edges"], own.get("graph.parse", 0.0)), "1/s"),
        "synth.generate_s": (per_op("synth.generate"), "s"),
        "model.block_counts_s": (per_op("model.block_counts"), "s"),
        "model.block_counts_calls": (calls.get("model.block_counts", 0) / n_ops, "count"),
        "model.log_marginal_s": (per_op("model.log_marginal"), "s"),
        "model.log_marginal_calls": (calls.get("model.log_marginal", 0) / n_ops, "count"),
        "model.log_prior_labels_s": (per_op("model.log_prior_labels"), "s"),
        "model.log_prior_labels_calls": (calls.get("model.log_prior_labels", 0) / n_ops,
                                         "count"),
        "sampler.init_chain_s": (per_op("sampler.init_chain"), "s"),
        "sampler.label_sweep_s": (per_op("sampler.label_sweep"), "s"),
        "sampler.node_updates_per_s": (ratio(counts["sampler.node_updates"],
                                             own.get("sampler.label_sweep", 0.0)), "1/s"),
        "sampler.flip_accept_ratio": (ratio(counts["sampler.flips_accepted"],
                                            counts["sampler.node_updates"]), "ratio"),
        "sampler.gibbs_s": (per_op("sampler.gibbs"), "s"),
        "sampler.relabel_s": (per_op("sampler.relabel"), "s"),
        "sampler.tally_s_per_draw": (ratio(own.get("sampler.run_chain", 0.0),
                                           counts["sampler.retained_draws"]), "s"),
        "inference.oracle_self_s": (per_op("inference.oracle"), "s"),
        "inference.classify_s": (per_op("inference.classify"), "s"),
        "inference.density_s": (per_op("inference.density"), "s"),
        "report.build_s": (per_op("report.build"), "s"),
        "report.serialize_s": (per_op("report.serialize"), "s"),
        "trace.overhead_frac": (p50([r.seconds for r in traced])
                                / p50([r.seconds for r in untraced]) - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mesoscale" / "__init__.py").is_file():
        print(f"error: {SRC / 'mesoscale'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mesoscale
    from tracing import SpanRecorder, patched
    from workloads import WORKLOADS

    if Path(mesoscale.__file__).resolve().parent != SRC / "mesoscale":
        print(f"error: imported {mesoscale.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    machine = describe_machine(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, out)
    with patched("mesoscale.sampler", "run_chain", workload.tap.wrap):
        workload.prepare()
        setup = [] if args.trace else time_setup(workload.setup_script)
        if args.trace:
            untraced = run_ops(workload, args.seconds / 2, 0)
            recorder = SpanRecorder()
            with recorder.installed():
                traced = run_ops(workload, args.seconds / 2, len(untraced), recorder)
            ops = untraced + traced
        else:
            ops = run_ops(workload, args.seconds, 0)
        workload.finish()

    # standalone checks count as attempts beside the ops
    failures = [f for r in ops for f in r.failures]
    failures += [f for check in workload.checks for f in check]
    attempted = len(ops) + len(workload.checks)
    failed = sum(1 for r in ops if r.failures) + sum(1 for c in workload.checks if c)
    if args.trace:
        metrics = per_layer(recorder, untraced, traced)
        recorder.write_csv(out / f"spans-seed{args.seed}.csv")
    else:
        metrics = end_to_end(workload, ops, setup, failed / attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    detail = {"machine": machine, "seconds": args.seconds, "trace": args.trace,
              "setup_s": setup, "op_s": [r.seconds for r in ops],
              "op_ess": [r.ess for r in ops], "failures": failures,
              "known_defects": workload.known_defects,
              "all_metrics": metrics, **result}
    if args.trace:
        detail["patched"] = recorder.patched
        detail["counts"] = recorder.counts
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"{json.dumps(machine)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:.6g} {unit}")
    for failure, times in Counter(f.strip() for f in failures).items():
        print(f"FAILED ({times}x): {failure}")
    for defect, times in Counter(workload.known_defects).items():
        print(f"KNOWN DEFECT, not counted as failed ({times}x): {defect}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
